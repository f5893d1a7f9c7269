package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sizes"
	"repro/internal/workloads"
)

// TestContextSingleflight hammers one memoization key from many
// goroutines and asserts the characterization ran exactly once — the
// latent data race the concurrent runner would otherwise hit.
func TestContextSingleflight(t *testing.T) {
	var runs atomic.Int32
	orig := characterizeGPU
	characterizeGPU = func(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, error) {
		runs.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the race window
		return gpusim.NewStats(cfg.Name), nil
	}
	defer func() { characterizeGPU = orig }()

	ctx := NewContext()
	ctx.Replay = false // pin the stubbed non-replay path
	b := kernels.All()[0]
	cfg := gpusim.Base8SM()
	const callers = 16
	results := make([]*gpusim.Stats, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := ctx.GPU(b, cfg)
			if err != nil {
				t.Error(err)
			}
			results[i] = s
		}(i)
	}
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("characterization ran %d times, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("callers observed different memoized results")
		}
	}
}

func TestContextSingleflightCachesErrors(t *testing.T) {
	var runs atomic.Int32
	orig := characterizeGPU
	characterizeGPU = func(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, error) {
		runs.Add(1)
		return nil, fmt.Errorf("boom")
	}
	defer func() { characterizeGPU = orig }()

	ctx := NewContext()
	ctx.Replay = false // pin the stubbed non-replay path
	b := kernels.All()[0]
	for i := 0; i < 3; i++ {
		if _, err := ctx.GPU(b, gpusim.Base8SM()); err == nil {
			t.Fatal("expected cached error")
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("failing characterization ran %d times, want 1", got)
	}
}

// TestMemoKeyedBySize is the memoization half of the size-axis
// regression: two requests for the same benchmark under the same
// configuration that differ only in problem-size class must each run
// their own characterization — before the size class joined gpuKey they
// silently shared one entry, so whichever class ran first poisoned the
// other's figures.
func TestMemoKeyedBySize(t *testing.T) {
	var runs atomic.Int32
	orig := characterizeGPU
	characterizeGPU = func(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, error) {
		runs.Add(1)
		return gpusim.NewStats(size.String()), nil
	}
	defer func() { characterizeGPU = orig }()

	ctx := NewContext()
	ctx.Replay = false // pin the stubbed non-replay path
	b := kernels.All()[0]
	cfg := gpusim.Base8SM()
	stTest, err := ctx.GPUAt(b, sizes.Test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stLarge, err := ctx.GPUAt(b, sizes.Large, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("characterization ran %d times for two size classes, want 2", got)
	}
	if stTest == stLarge {
		t.Fatal("test and large classes shared one memoized result")
	}
	// Same instance again: memoized, no third run.
	again, err := ctx.GPUAt(b, sizes.Test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != stTest {
		t.Fatal("repeat request was not served from the memo")
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("characterization ran %d times after a repeat request, want 2", got)
	}
}

// TestRunConcurrentOrdering checks that outcomes and streamed delivery
// both follow input order regardless of completion order.
func TestRunConcurrentOrdering(t *testing.T) {
	const n = 8
	var exps []*Experiment
	for i := 0; i < n; i++ {
		i := i
		exps = append(exps, &Experiment{
			ID:    fmt.Sprintf("exp%d", i),
			Title: fmt.Sprintf("experiment %d", i),
			Run: func(ctx *Context) (*Result, error) {
				// Early experiments sleep longest, so completion order is
				// roughly reversed from input order.
				time.Sleep(time.Duration(n-i) * 5 * time.Millisecond)
				if i == 3 {
					return nil, fmt.Errorf("exp%d failed", i)
				}
				return &Result{ID: fmt.Sprintf("exp%d", i)}, nil
			},
		})
	}
	var delivered []string
	outcomes := RunConcurrent(NewContext(), exps, 4, func(o Outcome) {
		delivered = append(delivered, o.Experiment.ID)
	})
	if len(outcomes) != n || len(delivered) != n {
		t.Fatalf("got %d outcomes, %d deliveries, want %d", len(outcomes), len(delivered), n)
	}
	for i, o := range outcomes {
		want := fmt.Sprintf("exp%d", i)
		if o.Experiment.ID != want || delivered[i] != want {
			t.Fatalf("position %d: outcome %s, delivered %s, want %s",
				i, o.Experiment.ID, delivered[i], want)
		}
		if i == 3 {
			if o.Err == nil {
				t.Fatal("exp3 error lost")
			}
		} else if o.Err != nil || o.Result == nil {
			t.Fatalf("exp%d: unexpected outcome %+v", i, o)
		}
	}
}

func TestRunConcurrentNoDeliver(t *testing.T) {
	exps := []*Experiment{{
		ID: "one",
		Run: func(ctx *Context) (*Result, error) {
			return &Result{ID: "one"}, nil
		},
	}}
	outcomes := RunConcurrent(NewContext(), exps, 0, nil)
	if len(outcomes) != 1 || outcomes[0].Result == nil {
		t.Fatalf("bad outcomes: %+v", outcomes)
	}
}

// TestContextSingleflightReplayPath is the singleflight test for the
// trace path: concurrent requests for several configurations of one
// benchmark must capture exactly once and replay the rest, with no
// duplicate captures racing through the per-benchmark gate.
func TestContextSingleflightReplayPath(t *testing.T) {
	var captures, replays atomic.Int32
	origCap, origRep := captureGPU, replayGPU
	captureGPU = func(b *kernels.Benchmark, size sizes.Class, cfg gpusim.Config, check bool, r *obs.Registry) (*gpusim.Stats, *gpusim.RunTrace, error) {
		captures.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the race window
		st, rt, err := origCap(b, size, cfg, false, nil)
		return st, rt, err
	}
	replayGPU = func(b *kernels.Benchmark, cfg gpusim.Config, rt *gpusim.RunTrace, r *obs.Registry) (*gpusim.Stats, error) {
		replays.Add(1)
		return origRep(b, cfg, rt, nil)
	}
	defer func() { captureGPU, replayGPU = origCap, origRep }()

	ctx := NewContext()
	ctx.Check = false
	b := kernels.All()[0]
	cfgs := []gpusim.Config{gpusim.Base(), gpusim.Base8SM(), gpusim.GTX280()}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for _, cfg := range cfgs {
			wg.Add(1)
			go func(cfg gpusim.Config) {
				defer wg.Done()
				if _, err := ctx.GPU(b, cfg); err != nil {
					t.Error(err)
				}
			}(cfg)
		}
	}
	wg.Wait()
	if got := captures.Load(); got != 1 {
		t.Fatalf("captured %d times, want 1", got)
	}
	if got := replays.Load(); got != int32(len(cfgs)-1) {
		t.Fatalf("replayed %d times, want %d", got, len(cfgs)-1)
	}
	c := ctx.TraceCounters()
	if c.Captures != 1 || c.Replays != uint64(len(cfgs)-1) || c.Fallbacks != 0 {
		t.Fatalf("counters = %+v, want 1 capture, %d replays, 0 fallbacks", c, len(cfgs)-1)
	}
}

// TestRunConcurrentPanicRecovery drives a mix of panicking, erroring and
// healthy experiments and asserts the runner delivers every outcome in
// order, converts panics to errors, wedges nowhere, and leaks no
// goroutines.
func TestRunConcurrentPanicRecovery(t *testing.T) {
	before := runtime.NumGoroutine()
	const n = 6
	var exps []*Experiment
	for i := 0; i < n; i++ {
		i := i
		exps = append(exps, &Experiment{
			ID: fmt.Sprintf("exp%d", i),
			Run: func(ctx *Context) (*Result, error) {
				switch i {
				case 1:
					panic("kaboom")
				case 4:
					return nil, fmt.Errorf("exp%d failed", i)
				}
				return &Result{ID: fmt.Sprintf("exp%d", i)}, nil
			},
		})
	}
	done := make(chan []Outcome, 1)
	var delivered []string
	go func() {
		done <- RunConcurrent(NewContext(), exps, 3, func(o Outcome) {
			delivered = append(delivered, o.Experiment.ID)
		})
	}()
	var outcomes []Outcome
	select {
	case outcomes = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunConcurrent wedged after a panicking experiment")
	}
	if len(outcomes) != n || len(delivered) != n {
		t.Fatalf("got %d outcomes, %d deliveries, want %d", len(outcomes), len(delivered), n)
	}
	for i, o := range outcomes {
		want := fmt.Sprintf("exp%d", i)
		if o.Experiment.ID != want || delivered[i] != want {
			t.Fatalf("position %d: outcome %s, delivered %s, want %s", i, o.Experiment.ID, delivered[i], want)
		}
		switch i {
		case 1:
			if o.Err == nil || !strings.Contains(o.Err.Error(), "panicked") {
				t.Fatalf("exp1: want panic error, got %v", o.Err)
			}
		case 4:
			if o.Err == nil {
				t.Fatal("exp4 error lost")
			}
		default:
			if o.Err != nil || o.Result == nil {
				t.Fatalf("exp%d: unexpected outcome %+v", i, o)
			}
		}
	}
	// Workers and the feeder must all have exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, now)
	}
}

// callOrPanic runs f, returning the value it panicked with (nil if it
// returned), and fails the test if f does not finish within a deadline —
// the hang a memo entry left incomplete by a panic used to cause.
func callOrPanic(t *testing.T, f func()) any {
	t.Helper()
	res := make(chan any, 1)
	go func() {
		defer func() { res <- recover() }()
		f()
	}()
	select {
	case v := <-res:
		return v
	case <-time.After(30 * time.Second):
		t.Fatal("memoized call blocked after an earlier panic")
		return nil
	}
}

// TestContextPanicCompletesCall panics through the GPU characterization
// hooks — capture on the replay path, characterizeGPU without replay —
// and asserts the panic reaches the first caller while a concurrent
// waiter and every later request for the key get an error instead of
// blocking.
func TestContextPanicCompletesCall(t *testing.T) {
	origChar, origCap := characterizeGPU, captureGPU
	defer func() { characterizeGPU, captureGPU = origChar, origCap }()
	for _, replay := range []bool{true, false} {
		release := make(chan struct{})
		var runs atomic.Int32
		boom := func() {
			runs.Add(1)
			<-release
			panic("boom")
		}
		captureGPU = func(*kernels.Benchmark, sizes.Class, gpusim.Config, bool, *obs.Registry) (*gpusim.Stats, *gpusim.RunTrace, error) {
			boom()
			return nil, nil, nil
		}
		characterizeGPU = func(*kernels.Benchmark, sizes.Class, gpusim.Config, bool, *obs.Registry) (*gpusim.Stats, error) {
			boom()
			return nil, nil
		}
		ctx := NewContext()
		ctx.Replay = replay
		b := kernels.All()[0]
		first := make(chan any, 1)
		go func() {
			defer func() { first <- recover() }()
			ctx.GPUAt(b, sizes.Test, gpusim.Base())
		}()
		for runs.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		waiter := make(chan error, 1)
		go func() {
			_, err := ctx.GPUAt(b, sizes.Test, gpusim.Base())
			waiter <- err
		}()
		time.Sleep(10 * time.Millisecond) // let the waiter block on the call
		close(release)
		if v := <-first; v != "boom" {
			t.Fatalf("replay=%v: first caller got panic %v, want boom", replay, v)
		}
		select {
		case err := <-waiter:
			if err == nil || !strings.Contains(err.Error(), "panicked: boom") {
				t.Fatalf("replay=%v: waiter got %v, want the recorded panic", replay, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("replay=%v: waiter blocked after the panic", replay)
		}
		var err error
		if v := callOrPanic(t, func() { _, err = ctx.GPUAt(b, sizes.Test, gpusim.Base()) }); v != nil {
			t.Fatalf("replay=%v: later request panicked: %v", replay, v)
		}
		if err == nil || !strings.Contains(err.Error(), "panicked: boom") {
			t.Fatalf("replay=%v: later request got %v, want the recorded panic", replay, err)
		}
		if got := runs.Load(); got != 1 {
			t.Fatalf("replay=%v: characterization ran %d times, want 1", replay, got)
		}
	}
}

// TestProfilesPanicCompletesCall is the CPU-profile counterpart: a panic
// in the profiling pass reaches the first caller, and a later request
// for the class re-panics with the recorded error rather than blocking.
func TestProfilesPanicCompletesCall(t *testing.T) {
	orig := characterizeCPU
	defer func() { characterizeCPU = orig }()
	characterizeCPU = func([]*workloads.Workload, sizes.Class, int, *obs.Registry) []*core.CPUProfile {
		panic("boom")
	}
	ctx := NewContext()
	if v := callOrPanic(t, func() { ctx.ProfilesAt(sizes.Test) }); v != "boom" {
		t.Fatalf("first caller got panic %v, want boom", v)
	}
	v := callOrPanic(t, func() { ctx.ProfilesAt(sizes.Test) })
	if err, ok := v.(error); !ok || !strings.Contains(err.Error(), "panicked: boom") {
		t.Fatalf("later request got %v, want the recorded panic as an error", v)
	}
}
