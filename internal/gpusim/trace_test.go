package gpusim

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/isa"
)

// captureVecAdd runs vecadd once under the capture config and returns
// the recorded trace.
func captureVecAdd(t *testing.T, cfg Config, n int) *RunTrace {
	t.Helper()
	k := vecAddKernel()
	mem, _ := setupVecAdd(n)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := g.Capture()
	if err := g.Launch(k, isa.Launch{Grid: (n + 255) / 256, Block: 256}, mem); err != nil {
		t.Fatal(err)
	}
	return tb.Trace()
}

// liveStats runs vecadd live under cfg and returns the device stats.
func liveStats(t *testing.T, cfg Config, n int) *Stats {
	t.Helper()
	k := vecAddKernel()
	mem, _ := setupVecAdd(n)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Launch(k, isa.Launch{Grid: (n + 255) / 256, Block: 256}, mem); err != nil {
		t.Fatal(err)
	}
	return g.Stats
}

// TestTraceReplayBitIdentical captures under the base config and replays
// under several timing configurations — including a different SM count
// and the sharded event loop — asserting Stats match live execution bit
// for bit.
func TestTraceReplayBitIdentical(t *testing.T) {
	const n = 4096
	rt := captureVecAdd(t, Base(), n)
	if rt.NumLaunches() != 1 || rt.Bytes() <= 0 {
		t.Fatalf("trace: %d launches, %d bytes", rt.NumLaunches(), rt.Bytes())
	}

	sharded := Base8SM()
	sharded.Name = "base8sm-sharded"
	sharded.ShardWorkers = 3
	for _, cfg := range []Config{Base(), Base8SM(), GTX280(), sharded} {
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Replay(rt); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		want := liveStats(t, cfg, n)
		if !reflect.DeepEqual(g.Stats, want) {
			t.Fatalf("%s: replay stats diverge from live execution\nreplay %+v\nlive   %+v", cfg.Name, g.Stats, want)
		}
	}
}

// TestTraceAtomicsInvalidate asserts a kernel containing an atomic
// invalidates its capture: the observed value of an atomic depends on
// the warp schedule, which any timing knob perturbs.
func TestTraceAtomicsInvalidate(t *testing.T) {
	b := isa.NewBuilder()
	ctr, one, d := b.I(), b.I(), b.I()
	b.LdParamI(ctr, 0)
	b.MovI(one, 1)
	b.AtomAdd(d, isa.SpaceGlobal, ctr, 0, one)
	k := b.Build("atomic")
	if !usesAtomics(k) {
		t.Fatal("usesAtomics missed the AtomAdd")
	}

	mem := isa.NewMemory()
	a := mem.AllocGlobal(8)
	mem.SetParamI(0, int64(a))
	g, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	tb := g.Capture()
	if err := g.Launch(k, isa.Launch{Grid: 2, Block: 64}, mem); err != nil {
		t.Fatal(err)
	}
	rt := tb.Trace()
	cfg := Base8SM()
	if err := rt.CompatibleWith(&cfg, false); err == nil || !strings.Contains(err.Error(), "atomics") {
		t.Fatalf("CompatibleWith = %v, want atomics rejection", err)
	}
	g2, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Replay(rt); err == nil {
		t.Fatal("Replay accepted an atomics-invalidated trace")
	}
}

// TestTraceConcurrentLaunchInvalidates asserts a multi-kernel launch
// invalidates the capture: the concurrent-kernel path interleaves
// dispatch cursors across kernels and is not recorded.
func TestTraceConcurrentLaunchInvalidates(t *testing.T) {
	const n = 512
	k := vecAddKernel()
	memA, _ := setupVecAdd(n)
	memB, _ := setupVecAdd(n)
	g, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	tb := g.Capture()
	launch := isa.Launch{Grid: (n + 255) / 256, Block: 256}
	err = g.LaunchConcurrent([]LaunchSpec{
		{Kernel: k, Launch: launch, Mem: memA},
		{Kernel: k, Launch: launch, Mem: memB},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := tb.Trace()
	cfg := Base8SM()
	if err := rt.CompatibleWith(&cfg, false); err == nil || !strings.Contains(err.Error(), "concurrent") {
		t.Fatalf("CompatibleWith = %v, want concurrent-launch rejection", err)
	}
	if rt.NumLaunches() != 0 || rt.Bytes() != 0 {
		t.Fatalf("invalidated trace retains %d launches, %d bytes", rt.NumLaunches(), rt.Bytes())
	}
}

// TestTraceReferenceInterpRejected asserts replay refuses a config that
// asks for the reference interpreter, whose purpose is re-execution.
func TestTraceReferenceInterpRejected(t *testing.T) {
	rt := captureVecAdd(t, Base8SM(), 512)
	cfg := Base8SM()
	cfg.ReferenceInterp = true
	if err := rt.CompatibleWith(&cfg, false); err == nil || !strings.Contains(err.Error(), "reference interpreter") {
		t.Fatalf("CompatibleWith = %v, want reference-interpreter rejection", err)
	}
}

// TestTraceStrictPlacement exercises the strict tier: cross-SM-count
// replay passes the relaxed predicate but fails strict, and the capture
// config itself always passes strict.
func TestTraceStrictPlacement(t *testing.T) {
	rt := captureVecAdd(t, Base(), 512)
	other := Base8SM()
	if err := rt.CompatibleWith(&other, false); err != nil {
		t.Fatalf("relaxed predicate rejected cross-SM replay: %v", err)
	}
	if err := rt.CompatibleWith(&other, true); err == nil || !strings.Contains(err.Error(), "placement") {
		t.Fatalf("strict predicate = %v, want placement rejection", err)
	}
	same := Base()
	if err := rt.CompatibleWith(&same, true); err != nil {
		t.Fatalf("strict predicate rejected the capture config: %v", err)
	}
}

// waitGoroutines polls until the goroutine count drops to at most want:
// a goroutine that has closed its done channel still needs a moment to
// exit.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d: pricing goroutine leaked", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelinedCaptureMatchesCapture runs the same launches through a
// synchronous and a pipelined capture: Stats and the recorded trace must
// be identical.
func TestPipelinedCaptureMatchesCapture(t *testing.T) {
	const n = 2048
	run := func(pipelined bool) (*Stats, *RunTrace) {
		mem, _ := setupVecAdd(n)
		g, err := New(Base8SM())
		if err != nil {
			t.Fatal(err)
		}
		tb := g.Capture()
		if pipelined {
			tb = g.CapturePipelined()
		}
		for i := 0; i < 3; i++ {
			if err := g.Launch(vecAddKernel(), isa.Launch{Grid: n / 256, Block: 256}, mem); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.Wait(); err != nil {
			t.Fatal(err)
		}
		return g.Stats, tb.Trace()
	}
	wantSt, wantRT := run(false)
	gotSt, gotRT := run(true)
	if !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatalf("pipelined stats diverge\n got: %+v\nwant: %+v", gotSt, wantSt)
	}
	if gotRT.NumLaunches() != 3 || gotRT.Bytes() != wantRT.Bytes() {
		t.Fatalf("pipelined trace: %d launches, %d bytes; want 3, %d", gotRT.NumLaunches(), gotRT.Bytes(), wantRT.Bytes())
	}
	for i := range wantRT.launches {
		if !reflect.DeepEqual(gotRT.launches[i].Warps, wantRT.launches[i].Warps) {
			t.Fatalf("launch %d: pipelined trace bytes differ", i)
		}
	}
}

// TestPipelinedPricingPanic injects a panic into pricing: it must reach
// the goroutine calling Wait, fail later launches, invalidate the trace
// and leave no goroutine behind.
func TestPipelinedPricingPanic(t *testing.T) {
	const n = 512
	before := runtime.NumGoroutine()
	mem, _ := setupVecAdd(n)
	g, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	tb := g.CapturePipelined()
	tb.price = func(*isa.LaunchTrace) error { panic("boom") }
	launch := isa.Launch{Grid: n / 256, Block: 256}
	if err := g.Launch(vecAddKernel(), launch, mem); err != nil {
		t.Fatalf("launch before the pricing panic surfaced: %v", err)
	}
	func() {
		defer func() {
			v := recover()
			if err, ok := v.(error); !ok || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("Wait raised %v, want the pricing panic", v)
			}
		}()
		tb.Wait()
		t.Fatal("Wait returned after a pricing panic")
	}()
	waitGoroutines(t, before)
	if err := g.Launch(vecAddKernel(), launch, mem); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("launch after the pricing panic = %v, want it to fail", err)
	}
	if err := tb.Trace().Replayable(); err == nil {
		t.Fatal("trace still replayable after a pricing panic")
	}
}

// TestPipelinedPricingError injects a pricing error: the next launch
// observes it, Wait returns it, and the goroutine is gone.
func TestPipelinedPricingError(t *testing.T) {
	const n = 512
	before := runtime.NumGoroutine()
	mem, _ := setupVecAdd(n)
	g, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	tb := g.CapturePipelined()
	tb.price = func(*isa.LaunchTrace) error { return errors.New("pricing failed") }
	launch := isa.Launch{Grid: n / 256, Block: 256}
	if err := g.Launch(vecAddKernel(), launch, mem); err != nil {
		t.Fatal(err)
	}
	for tb.pricingErr() == nil {
		time.Sleep(time.Millisecond)
	}
	if err := g.Launch(vecAddKernel(), launch, mem); err == nil || err.Error() != "pricing failed" {
		t.Fatalf("launch after a pricing error = %v, want the pricing error", err)
	}
	waitGoroutines(t, before)
	if err := tb.Wait(); err == nil || err.Error() != "pricing failed" {
		t.Fatalf("Wait = %v, want the pricing error", err)
	}
	if err := tb.Trace().Replayable(); err == nil || !strings.Contains(err.Error(), "pricing failed") {
		t.Fatalf("Replayable = %v, want the pricing error", err)
	}
}

// TestPipelinedFunctionalFault faults a kernel mid-run: the faulting
// launch stops pricing and waits for the goroutine before it returns its
// error, the launches before it stay priced, and the trace is invalid.
func TestPipelinedFunctionalFault(t *testing.T) {
	const n = 512
	before := runtime.NumGoroutine()
	g, err := New(Base8SM())
	if err != nil {
		t.Fatal(err)
	}
	tb := g.CapturePipelined()
	mem, _ := setupVecAdd(n)
	launch := isa.Launch{Grid: n / 256, Block: 256}
	if err := g.Launch(vecAddKernel(), launch, mem); err != nil {
		t.Fatal(err)
	}
	bad, _ := setupVecAdd(n)
	bad.SetParamI(3, 4*n) // bounds check past the arrays: loads fault
	if err := g.Launch(vecAddKernel(), isa.Launch{Grid: 4 * n / 256, Block: 256}, bad); err == nil {
		t.Fatal("faulting launch returned nil")
	}
	waitGoroutines(t, before)
	if err := tb.Wait(); err != nil {
		t.Fatalf("Wait = %v after a functional fault, want nil (the launch reported it)", err)
	}
	if err := tb.Trace().Replayable(); err == nil || !strings.Contains(err.Error(), "launch failed") {
		t.Fatalf("Replayable = %v, want a launch-failed invalidation", err)
	}
	if g.Stats.Launches != 1 {
		t.Fatalf("%d launches priced, want the one before the fault", g.Stats.Launches)
	}
}

// TestReferenceInterpCaptureRunsLive asserts a capture under the
// reference interpreter invalidates its trace and runs live, with Stats
// equal to a plain reference run.
func TestReferenceInterpCaptureRunsLive(t *testing.T) {
	const n = 512
	cfg := Base8SM()
	cfg.ReferenceInterp = true
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := g.CapturePipelined()
	mem, _ := setupVecAdd(n)
	if err := g.Launch(vecAddKernel(), isa.Launch{Grid: n / 256, Block: 256}, mem); err != nil {
		t.Fatal(err)
	}
	if err := tb.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := tb.Trace().Replayable(); err == nil || !strings.Contains(err.Error(), "reference interpreter") {
		t.Fatalf("Replayable = %v, want a reference-interpreter invalidation", err)
	}
	if want := liveStats(t, cfg, n); !reflect.DeepEqual(g.Stats, want) {
		t.Fatalf("stats diverge from a live reference run\n got: %+v\nwant: %+v", g.Stats, want)
	}
}
