package main

import (
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sizes"
)

func TestGeneratorsAreSeeded(t *testing.T) {
	if !reflect.DeepEqual(drawPoints(7), drawPoints(7)) || !reflect.DeepEqual(genServe(7), genServe(7)) {
		t.Fatal("the same seed gave different inputs")
	}
	for _, pair := range [][2]uint64{{1, 2}, {7, 8}, {3, 1000003}} {
		if reflect.DeepEqual(genServe(pair[0]), genServe(pair[1])) {
			t.Errorf("seeds %d and %d gave the same request sequences", pair[0], pair[1])
		}
	}
	distinct := map[string]bool{}
	for seed := uint64(1); seed <= 20; seed++ {
		key := ""
		for _, p := range drawPoints(seed) {
			key += p.Name + ","
		}
		distinct[key] = true
	}
	if len(distinct) < 15 {
		t.Errorf("20 seeds drew only %d distinct point sets", len(distinct))
	}
}

// TestEveryDrawableInputHasADigest makes every seed checkable: each
// catalogue point and each key a request sequence can name has a
// committed digest from a live run.
func TestEveryDrawableInputHasADigest(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range kernels.All() {
		for _, stratum := range pointStrata() {
			for _, p := range stratum {
				if _, ok := d.GPU[gpuDigestKey(b.Abbrev, sizes.Medium, p.Name)]; !ok {
					t.Errorf("no digest for %s at %s", b.Abbrev, p.Name)
				}
			}
		}
	}
	for seed := uint64(1); seed <= 50; seed++ {
		for _, reqs := range genServe(seed) {
			for _, q := range reqs {
				if q.Key.Bench == "" {
					continue
				}
				if _, ok := d.GPU[gpuDigestKey(q.Key.Bench, sizes.Test, q.Key.pointName())]; !ok {
					t.Fatalf("seed %d: no digest for %s", seed, q.Key)
				}
			}
		}
	}
}

// TestServeSequenceShape pins what the tiers rely on: clients own
// disjoint halves of the suite, each client issues every figure's
// requests for its benchmarks, and each distinct key is first touched
// once per round.
func TestServeSequenceShape(t *testing.T) {
	reqs := genServe(42)
	if len(reqs) != serveClients {
		t.Fatalf("%d clients", len(reqs))
	}
	perBench, profiles := 0, 0
	for _, f := range figureSweeps {
		perBench += len(f.cfgs)
		if f.profiles {
			profiles++
		}
	}
	owner := map[string]int{}
	for c, seq := range reqs {
		tiers := map[string]int{}
		benches := map[string]bool{}
		for _, q := range seq {
			tiers[q.Tier]++
			if q.Key.Bench == "" {
				continue
			}
			benches[q.Key.Bench] = true
			if o, ok := owner[q.Key.Bench]; ok && o != c {
				t.Errorf("benchmark %s is shared by clients %d and %d", q.Key.Bench, o, c)
			}
			owner[q.Key.Bench] = c
		}
		n := len(kernels.All()) / serveClients
		if len(benches) != n {
			t.Errorf("client %d has %d benchmarks, want %d", c, len(benches), n)
		}
		var stored, unstored int
		for _, k := range serveKeys("BFS") {
			if k.stored() {
				stored++
			} else {
				unstored++
			}
		}
		want := map[string]int{
			tierList: 1, tierProfiles: profiles,
			tierDisk: n * stored, tierCompute: n * unstored, tierMemo: n * (perBench - stored - unstored),
		}
		if !reflect.DeepEqual(tiers, want) {
			t.Errorf("client %d tiers %v, want %v", c, tiers, want)
		}
	}
}
