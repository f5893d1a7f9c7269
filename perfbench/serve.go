package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/sizes"
	"repro/internal/store"
)

// prefill builds the store snapshot serve-mixed starts every round from:
// test-size traces and Stats for every benchmark on every preset, and the
// test-size CPU-profile sweep, all computed through a context over the
// store exactly as the service computes them.
func prefill(e *env, dir string) error {
	st, err := store.Open(dir, 0, nil)
	if err != nil {
		return err
	}
	ctx := experiments.NewContext()
	ctx.Size = sizes.Test
	ctx.Store = st
	for _, b := range kernels.All() {
		for _, name := range gpusim.PresetNames() {
			k := serveKey{Bench: b.Abbrev, Preset: name}
			var s *gpusim.Stats
			e.tr.timed("experiments.prefill", e.tr.newID(), -1, func() { s, err = ctx.GPUAt(b, sizes.Test, k.config()) })
			if err == nil {
				err = e.dig.checkGPU(b.Abbrev, sizes.Test, k.pointName(), s)
			}
			e.res.check(err)
		}
	}
	e.dig.checkProfiles(sizes.Test, ctx.ProfilesAt(sizes.Test), e.res)
	return st.Close()
}

// restore replaces dst with a copy of the snapshot at src, so every round
// starts from identical disk state.
func restore(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// sample is one completed request.
type sample struct {
	req     *serveRequest
	latency time.Duration
	status  int
	body    []byte
	err     error
}

// round is what one serve round measured.
type round struct {
	wall     time.Duration
	samples  []sample
	handler  []float64 // traced rounds: handler time per request, ms
	reg      *obs.Registry
	counters experiments.TraceCounters
}

// spanHeader carries the client span's ID and index to the handler, so a
// request's client and handler spans share an ID.
const spanHeader = "X-Perfbench-Span"

// serveRound restores the snapshot, starts the service on a loopback
// listener over a fresh context, and runs the closed loop: each client
// sends its next request only after reading the previous reply. Traced
// rounds attach a registry to the context and store and time the
// handler with a wrapper around the mux.
func serveRound(e *env, snap, work string, reqs [][]serveRequest, traced bool) (*round, error) {
	if err := restore(snap, work); err != nil {
		return nil, err
	}
	rd := &round{}
	tr := e.tr
	if !traced {
		tr = nil
	} else {
		rd.reg = obs.New()
	}
	st, err := store.Open(work, 0, rd.reg)
	if err != nil {
		return nil, err
	}
	ctx := experiments.NewContext()
	ctx.Size = sizes.Test
	ctx.Store = st
	ctx.Obs = rd.reg
	var handler http.Handler = simd.NewServeMux(ctx)
	var hmu sync.Mutex
	if traced {
		mux := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var id int64
			parent := -1
			fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &id, &parent) //nolint:errcheck // absent header: a root span
			d := tr.timed("simd.handler", id, parent, func() { mux.ServeHTTP(w, r) })
			hmu.Lock()
			rd.handler = append(rd.handler, float64(d.Nanoseconds())/1e6)
			hmu.Unlock()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	transport := &http.Transport{MaxIdleConnsPerHost: serveClients}
	client := &http.Client{Transport: transport}
	base := "http://" + ln.Addr().String()

	perClient := make([][]sample, len(reqs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range reqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range reqs[c] {
				q := &reqs[c][i]
				perClient[c] = append(perClient[c], doRequest(tr, client, base, q))
			}
		}(c)
	}
	wg.Wait()
	rd.wall = time.Since(t0)

	// Close the client's connections first: Shutdown waits five seconds
	// for a connection that was dialed but never carried a request.
	transport.CloseIdleConnections()
	shutdownErr := srv.Shutdown(context.Background())
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		shutdownErr = errors.Join(shutdownErr, err)
	}
	rd.counters = ctx.TraceCounters()
	if err := errors.Join(shutdownErr, st.Close()); err != nil {
		return nil, err
	}
	for _, s := range perClient {
		rd.samples = append(rd.samples, s...)
	}
	return rd, nil
}

// doRequest sends one request and reads the whole reply; latency runs
// until the last body byte arrives. Checking happens after the round.
func doRequest(tr *tracer, client *http.Client, base string, q *serveRequest) sample {
	id := tr.newID()
	sp := tr.start("perfbench.request", id, -1)
	s := sample{req: q}
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodGet, base+q.Path, nil)
	if err != nil {
		s.err = err
		return s
	}
	if tr != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", id, sp))
	}
	resp, err := client.Do(req)
	if err == nil {
		s.status = resp.StatusCode
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.latency = time.Since(t0)
	tr.end(sp)
	s.err = err
	return s
}

// verify checks every reply of a round against the committed digests and
// returns the server-side elapsed time of each /characterize reply by
// expected tier, in ms.
func verify(e *env, rd *round) map[string][]float64 {
	elapsed := map[string][]float64{}
	for i := range rd.samples {
		s := &rd.samples[i]
		err := s.err
		if err == nil && s.status != http.StatusOK {
			err = fmt.Errorf("%s: HTTP %d: %s", s.req.Path, s.status, strings.TrimSpace(string(s.body)))
		}
		if err == nil {
			switch s.req.Tier {
			case tierProfiles:
				var pr simd.ProfilesResponse
				if err = json.Unmarshal(s.body, &pr); err == nil {
					if got := hashJSON(pr.Profiles); got != e.dig.Profiles {
						err = fmt.Errorf("%s: profiles digest %s, committed %s", s.req.Path, got, e.dig.Profiles)
					}
				}
			case tierList:
				err = checkBenchmarkList(s.body)
			default:
				var resp simd.Response
				if err = json.Unmarshal(s.body, &resp); err == nil {
					if resp.Stats == nil {
						err = fmt.Errorf("%s: reply has no stats", s.req.Path)
					} else {
						err = e.dig.checkGPU(s.req.Key.Bench, sizes.Test, s.req.Key.pointName(), resp.Stats)
					}
					elapsed[s.req.Tier] = append(elapsed[s.req.Tier], float64(resp.ElapsedNS)/1e6)
				}
			}
		}
		e.res.check(err)
	}
	return elapsed
}

func checkBenchmarkList(body []byte) error {
	var rows []struct {
		Abbrev string `json:"abbrev"`
	}
	if err := json.Unmarshal(body, &rows); err != nil {
		return fmt.Errorf("/benchmarks: %w", err)
	}
	all := kernels.All()
	if len(rows) != len(all) {
		return fmt.Errorf("/benchmarks: %d rows, want %d", len(rows), len(all))
	}
	for i, b := range all {
		if rows[i].Abbrev != b.Abbrev {
			return fmt.Errorf("/benchmarks: row %d is %q, want %q", i, rows[i].Abbrev, b.Abbrev)
		}
	}
	return nil
}

func latenciesMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.latency.Nanoseconds()) / 1e6
	}
	return out
}

// serveDirs are the snapshot and working store directories of a run.
func serveDirs(e *env) (snap, work string) {
	return filepath.Join(e.workdir, "snapshot"), filepath.Join(e.workdir, "store")
}

func runServeMixed(e *env) error {
	d, err := loadDigests()
	if err != nil {
		return err
	}
	e.dig = d
	reqs := genServe(e.seed)
	snap, work := serveDirs(e)
	t0 := time.Now()
	if err := prefill(e, snap); err != nil {
		return err
	}
	e.res.set("setup_s", time.Since(t0).Seconds(), "s")

	// Replies are checked after each round and only latencies kept, so the
	// benchmark's own memory does not grow with the number of rounds.
	var walls, lat []float64
	elapsed := map[string][]float64{}
	busy := map[string]float64{} // client time per tier, ms
	_, err = repeatFor(e.budget, func() error {
		rd, err := serveRound(e, snap, work, reqs, false)
		if err != nil {
			return err
		}
		walls = append(walls, rd.wall.Seconds())
		ms := latenciesMS(rd.samples)
		for i, s := range rd.samples {
			busy[s.req.Tier] += ms[i]
		}
		lat = append(lat, ms...)
		for tier, xs := range verify(e, rd) {
			elapsed[tier] = append(elapsed[tier], xs...)
		}
		return nil
	})
	if err != nil {
		return err
	}
	wall := median(walls)
	var total float64
	for _, w := range walls {
		total += w
	}
	e.res.set("wall_s", wall, "s")
	e.res.note("units %d (rounds of %d requests from %d closed-loop clients replaying the figures' sweeps, each from a restored snapshot)",
		len(walls), len(lat)/len(walls), serveClients)
	e.res.figure("wall_s", wall, "s")
	e.res.figure("req_per_s", float64(len(lat))/total, "req/s")
	e.res.figure("req_p50_ms", median(lat), "ms")
	e.res.figure("req_p99_ms", quantile(lat, 0.99), "ms")
	e.res.note("%-34s %14d samples, %d beyond p99", "req_samples", len(lat), len(lat)/100)
	for _, tier := range []string{tierMemo, tierDisk, tierCompute} {
		e.res.figure("elapsed_p50_ms."+tier, median(elapsed[tier]), "ms")
	}
	// Each client waits on one request at a time, so a tier's share of
	// the clients' time is its share of wall_s.
	var all float64
	for _, ms := range busy {
		all += ms
	}
	for _, tier := range []string{tierMemo, tierDisk, tierCompute, tierProfiles, tierList} {
		e.res.figure("wall_share."+tier, busy[tier]/all, "frac")
	}
	return nil
}

func traceServeMixed(e *env) error {
	d, err := loadDigests()
	if err != nil {
		return err
	}
	e.dig = d
	snap, work := serveDirs(e)
	if err := prefill(e, snap); err != nil {
		return err
	}
	reqs := genServe(e.seed)
	rd, err := serveRound(e, snap, work, reqs, false)
	if err != nil {
		return err
	}
	verify(e, rd)
	traced, err := traceRound(e, snap, work, reqs)
	if err != nil {
		return err
	}
	e.overhead(rd.wall, traced)
	p, err := probeGPU(e, sizes.Test)
	if err != nil {
		return err
	}
	if _, err := probeReplay(e, sizes.Test, p.traces, []point{basePoint()}); err != nil {
		return err
	}
	probeCPU(e, sizes.Test)
	return nil
}

// probeService measures the experiments, store and simd layers for a
// workload that does not exercise them: a prefill and one traced round
// of the default-seed request mix.
func probeService(e *env) error {
	snap, work := serveDirs(e)
	if err := prefill(e, snap); err != nil {
		return err
	}
	_, err := traceRound(e, snap, work, genServe(1))
	return err
}

// traceRound runs one traced round and sets the experiments, store and
// simd metrics from it, then times the store's typed methods directly.
func traceRound(e *env, snap, work string, reqs [][]serveRequest) (time.Duration, error) {
	rd, err := serveRound(e, snap, work, reqs, true)
	if err != nil {
		return 0, err
	}
	elapsed := verify(e, rd)
	tc := rd.counters
	e.res.set("experiments.trace.captures", float64(tc.Captures), "count")
	e.res.set("experiments.trace.replays", float64(tc.Replays), "count")
	e.res.set("experiments.trace.fallbacks", float64(tc.Fallbacks), "count")
	e.res.set("experiments.trace.replay_frac", float64(tc.Replays)/float64(tc.Replays+tc.Captures), "frac")
	e.res.set("experiments.memo_hit_ms", median(elapsed[tierMemo]), "ms")
	e.res.set("experiments.disk_hit_ms", median(elapsed[tierDisk]), "ms")
	e.res.set("experiments.compute_ms", median(elapsed[tierCompute]), "ms")
	c := rd.reg.Counters()
	e.res.set("store.hit_frac", float64(c["store.hit"])/float64(c["store.hit"]+c["store.miss"]), "frac")
	e.res.set("simd.handler_p50_ms", median(rd.handler), "ms")
	e.res.set("simd.handler_p99_ms", quantile(rd.handler, 0.99), "ms")
	lat := latenciesMS(rd.samples)
	e.res.note("traced round: client p50 %.3f ms, handler p50 %.3f ms (difference is HTTP/JSON overhead)",
		median(lat), median(rd.handler))
	return rd.wall, probeStore(e, snap, work)
}

// probeStore times the store's typed methods directly on the prefilled
// keys of a restored snapshot: every Stats blob and every trace, read
// then written back.
func probeStore(e *env, snap, work string) error {
	if err := restore(snap, work); err != nil {
		return err
	}
	st, err := store.Open(work, 0, nil)
	if err != nil {
		return err
	}
	tr := e.tr
	var get, put, load, save []float64
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for _, b := range kernels.All() {
		for _, name := range gpusim.PresetNames() {
			k := store.StatsKey(b.Abbrev, sizes.Test, serveKey{Preset: name}.config())
			var s *gpusim.Stats
			var ok bool
			get = append(get, ms(tr.timed("store.load_stats", tr.newID(), -1, func() { s, ok = st.LoadStats(k) })))
			if !ok {
				e.res.check(fmt.Errorf("store probe: %s/%s stats not in the snapshot", b.Abbrev, name))
				continue
			}
			put = append(put, ms(tr.timed("store.save_stats", tr.newID(), -1, func() { err = st.SaveStats(k, s) })))
			e.res.check(err)
		}
		k := store.TraceKey(b.Abbrev, sizes.Test)
		var rt *gpusim.RunTrace
		var ok bool
		load = append(load, ms(tr.timed("store.load_trace", tr.newID(), -1, func() { rt, ok = st.LoadTrace(k) })))
		if !ok {
			e.res.check(fmt.Errorf("store probe: %s trace not in the snapshot", b.Abbrev))
			continue
		}
		save = append(save, ms(tr.timed("store.save_trace", tr.newID(), -1, func() { err = st.SaveTrace(k, rt) })))
		e.res.check(err)
	}
	e.res.set("store.get_stats_ms", median(get), "ms")
	e.res.set("store.put_stats_ms", median(put), "ms")
	e.res.set("store.load_trace_ms", median(load), "ms")
	e.res.set("store.save_trace_ms", median(save), "ms")
	return st.Close()
}
