package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sizes"
	"repro/internal/store"
)

func testEnv(t *testing.T, seed uint64) *env {
	t.Helper()
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	return &env{seed: seed, workdir: t.TempDir(), dig: d, res: newResult(), tr: newTracer()}
}

// servedRound prefills a snapshot and runs one traced round of seed's
// request mix over it, failing the test on any failed check. It returns
// the round, its requests and the store directory the round left behind.
func servedRound(t *testing.T, seed uint64) (*round, [][]serveRequest, string) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the service")
	}
	e := testEnv(t, seed)
	snap, work := serveDirs(e)
	if err := prefill(e, snap); err != nil {
		t.Fatal(err)
	}
	reqs := genServe(e.seed)
	rd, err := serveRound(e, snap, work, reqs, true)
	if err != nil {
		t.Fatal(err)
	}
	verify(e, rd)
	if e.res.failed != 0 {
		t.Fatalf("%d of %d checks failed: %v", e.res.failed, e.res.attempted, e.res.failures)
	}
	return rd, reqs, work
}

// TestTierClassifierMatchesCounters runs one traced round on a held-out
// seed and checks the generator's tier of every request against what the
// program counted: every disk-tier request is one store hit, every
// compute-tier request one store miss and one executed characterization,
// plus one trace load per benchmark with a compute request and one
// profile-sweep load.
func TestTierClassifierMatchesCounters(t *testing.T) {
	rd, reqs, _ := servedRound(t, 987654321)
	tiers := map[string]uint64{}
	traceLoads := map[string]bool{}
	for _, seq := range reqs {
		for _, q := range seq {
			tiers[q.Tier]++
			if q.Tier == tierCompute {
				traceLoads[q.Key.Bench] = true
			}
		}
	}
	profileLoads := uint64(0)
	if tiers[tierProfiles] > 0 {
		profileLoads = 1
	}
	c := rd.reg.Counters()
	var runs uint64
	for name, v := range c {
		if base, _ := obs.ParseName(name); base == "exp.gpu.runs" {
			runs += v
		}
	}
	if want := tiers[tierDisk] + uint64(len(traceLoads)) + profileLoads; c["store.hit"] != want {
		t.Errorf("store.hit = %d, generator expects %d", c["store.hit"], want)
	}
	if c["store.miss"] != tiers[tierCompute] {
		t.Errorf("store.miss = %d, generator expects %d", c["store.miss"], tiers[tierCompute])
	}
	if runs != tiers[tierCompute] {
		t.Errorf("exp.gpu.runs = %d, generator expects %d", runs, tiers[tierCompute])
	}
	if rd.counters.Replays != tiers[tierCompute] || rd.counters.Captures != 0 {
		t.Errorf("trace counters %+v, generator expects %d replays", rd.counters, tiers[tierCompute])
	}
}

// TestFigureSweepsMatchExperiments checks the request table against the
// figures themselves: each figure of figureSweeps, run on a fresh context
// over the store a round left behind, must hit exactly the table's keys
// and compute nothing.
func TestFigureSweepsMatchExperiments(t *testing.T) {
	_, _, work := servedRound(t, 1)
	for _, f := range figureSweeps {
		exp, ok := experiments.ByID(f.id)
		if !ok {
			t.Errorf("%s: no such experiment", f.id)
			continue
		}
		reg := obs.New()
		st, err := store.Open(work, 0, reg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := experiments.NewContext()
		ctx.Size, ctx.Store, ctx.Obs = sizes.Test, st, reg
		if _, err := exp.Run(ctx); err != nil {
			t.Errorf("%s: %v", f.id, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		keys := map[serveKey]bool{}
		for _, k := range f.cfgs {
			keys[k.norm()] = true
		}
		want := uint64(len(keys) * len(kernels.All()))
		if f.profiles {
			want++
		}
		c := reg.Counters()
		if c["store.hit"] != want || c["store.miss"] != 0 {
			t.Errorf("%s: %d store hits, %d misses; the table expects %d hits", f.id, c["store.hit"], c["store.miss"], want)
		}
	}
}

// TestRestoreGivesIdenticalDiskState mutates a restored store and
// restores again: the result must match the snapshot file for file.
func TestRestoreGivesIdenticalDiskState(t *testing.T) {
	snap, work := filepath.Join(t.TempDir(), "snap"), filepath.Join(t.TempDir(), "work")
	st, err := store.Open(snap, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats := &gpusim.Stats{Config: "x", Cycles: 42}
	if err := st.SaveStats(store.StatsKey("BFS", sizes.Test, gpusim.Base()), stats); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := tree(t, snap)
	for round := 0; round < 2; round++ {
		if err := restore(snap, work); err != nil {
			t.Fatal(err)
		}
		if got := tree(t, work); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: restored tree %v, snapshot %v", round, keys(got), keys(want))
		}
		st, err := store.Open(work, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range kernels.All() {
			if err := st.SaveStats(store.StatsKey(b.Abbrev, sizes.Test, gpusim.GTX280()), stats); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func tree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(root, path)
		out[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func keys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
