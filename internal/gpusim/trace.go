package gpusim

import (
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/isa"
)

// Trace capture and replay. Capture is functional-first: a GPU with a
// TraceBuilder attached (Capture, CapturePipelined) runs each launch on
// the functional executor — CTA by CTA, each warp to its next barrier —
// recording per-warp instruction streams, masks and addresses
// (isa.LaunchTrace) into a RunTrace, and then prices the recording on
// its own timing model through the same path Replay uses. A pipelined
// capture prices on a second goroutine, so one launch is timed while the
// next executes. A later GPU built for a *different* timing
// configuration can Replay the RunTrace: the event loop, scheduler,
// coalescer, caches and DRAM model all run exactly as in live execution,
// but warps are isa.ReplayWarp instances fed from the trace, so kernels
// are never re-executed and no benchmark memory is allocated. The event
// loop itself never records.
//
// Validity. Replay reproduces full execution bit-identically on
// gpusim.Stats only when the replay configuration cannot change the
// functional streams. The explicit predicate (CompatibleWith) requires:
//
//   - the trace is replayable at all: only single-kernel launches (the
//     concurrent-kernel path interleaves dispatch cursors across
//     kernels), no atomics (an atomic's observed value depends on the
//     warp schedule, and every timing knob changes the schedule), and
//     every PC fits the trace encoding;
//   - the replay does not request the reference interpreter, whose whole
//     point is to re-execute the kernel.
//
// Capture itself, and any cross-config replay — even one that only
// changes DRAM channel count — rely on the functional streams being
// schedule-independent: the functional executor's CTA-serial schedule is
// not the timing model's, and a latency change reorders warp issue, so a
// kernel whose loads observe values concurrently stored by other warps
// in the same launch could record a stream another schedule would not
// produce. The simulator already stakes the shard-parallel path's
// bit-identity on exactly this workload invariant (see parallel.go:
// cross-CTA communication within a launch is absent or benign
// same-value; synchronization happens between launches through the
// host), and atomics — the one schedule-visible instruction class —
// invalidate the trace at capture: their launches run live in the event
// loop, as does every launch under the reference interpreter. Under that
// invariant the streams are also independent of CTA→SM placement, so
// traces replay across SM-count and occupancy changes too; the
// differential tests in internal/core pin bit-identity empirically for
// every benchmark across the experiment configurations (Figure 4
// channels, Figure 5 architectures, the Plackett-Burman rows).
//
// For defense in depth, strictPlacement additionally requires identical
// CTA→SM placement: same NumSMs and, for every (kernel, block) in the
// trace, the same CTAsPerSM. Placement for single-kernel launches is
// fully determined by those two (fill packs CTAs onto each SM until its
// budgets are exhausted), so a strict replay runs the recorded streams
// under the exact capture placement. Use it when running workloads whose
// launch-synchronization discipline is unvetted.
//
// Incompatibility is a normal condition, not an error: callers fall back
// to full execution (and typically capture a fresh trace while at it).
//
// Replay composes with every execution engine, including the
// epoch-parallel path (epoch.go): replayed warps never read functional
// memory, so the epoch engine's store-visibility gate never applies to
// them and replay runs full-length epochs unconditionally — the ideal
// pairing for multi-configuration sweeps (trace once, replay many, each
// replay epoch-parallel).

// RunTrace is the functional recording of one benchmark run: every
// kernel launch the benchmark issued, in order, under the configuration
// it was captured with. Replays only read the trace, so one RunTrace may
// serve any number of concurrent replays.
type RunTrace struct {
	cfg      Config
	launches []*isa.LaunchTrace
	invalid  string
	bytes    int64
}

// Bytes reports the retained size of the trace's slabs and headers.
func (rt *RunTrace) Bytes() int64 { return rt.bytes }

// NumLaunches reports how many kernel launches the trace holds.
func (rt *RunTrace) NumLaunches() int { return len(rt.launches) }

// CaptureConfig returns the configuration the trace was recorded under.
func (rt *RunTrace) CaptureConfig() Config { return rt.cfg }

// Replayable reports whether the trace can drive replays at all — i.e.
// capture saw nothing unrecordable. A non-nil error carries the reason
// (atomics, concurrent kernels, ...). Per-configuration validity is the
// stronger CompatibleWith check.
func (rt *RunTrace) Replayable() error {
	if rt.invalid != "" {
		return fmt.Errorf("gpusim: trace not replayable: %s", rt.invalid)
	}
	return nil
}

// Export decomposes the trace into its persistable parts — the capture
// configuration, the per-launch functional recordings, and the invalid
// reason (empty when replayable) — for the disk artifact store
// (internal/store). The launches are the live slabs, not copies; callers
// must treat them as read-only, exactly like replays do.
func (rt *RunTrace) Export() (cfg Config, launches []*isa.LaunchTrace, invalid string) {
	return rt.cfg, rt.launches, rt.invalid
}

// ImportRunTrace reassembles a RunTrace from parts produced by Export
// (typically decoded from disk), recomputing its retained size.
func ImportRunTrace(cfg Config, launches []*isa.LaunchTrace, invalid string) *RunTrace {
	rt := &RunTrace{cfg: cfg, launches: launches, invalid: invalid}
	for _, lt := range launches {
		rt.bytes += lt.Bytes()
	}
	return rt
}

// CompatibleWith reports whether replaying the trace under cfg
// reproduces full execution bit-identically (see the validity discussion
// at the top of this file). strictPlacement additionally demands the
// capture's exact CTA→SM placement. A nil return means compatible;
// otherwise the error explains the mismatch so callers can log the
// fallback decision.
func (rt *RunTrace) CompatibleWith(cfg *Config, strictPlacement bool) error {
	if err := rt.Replayable(); err != nil {
		return err
	}
	if cfg.ReferenceInterp {
		return fmt.Errorf("gpusim: config %s requests the reference interpreter; replay skips execution entirely", cfg.Name)
	}
	if !strictPlacement {
		return nil
	}
	if cfg.NumSMs != rt.cfg.NumSMs {
		return fmt.Errorf("gpusim: trace captured with %d SMs; config %s has %d (CTA placement changes)",
			rt.cfg.NumSMs, cfg.Name, cfg.NumSMs)
	}
	for _, lt := range rt.launches {
		was, now := rt.cfg.CTAsPerSM(lt.Kernel, lt.Launch.Block), cfg.CTAsPerSM(lt.Kernel, lt.Launch.Block)
		if was != now {
			return fmt.Errorf("gpusim: kernel %s: %d CTAs/SM at capture vs %d under %s (CTA placement changes)",
				lt.Kernel.Name, was, now, cfg.Name)
		}
	}
	return nil
}

// pricingQueue is the capacity of a pipelined capture's handoff: how
// many recorded launches the functional half may run ahead of pricing.
// Queued recordings belong to the trace anyway, so depth costs no
// memory, and a functional half that far ahead is waiting on a timing
// bottleneck it could not shorten.
const pricingQueue = 64

// TraceBuilder accumulates a RunTrace while a capturing GPU runs a
// benchmark. Obtain one with GPU.Capture or GPU.CapturePipelined before
// the run and its trace with Trace after.
//
// Each launch runs functionally with a recorder attached, and the
// recording is then priced exactly as Replay prices it (see the top of
// this file). A launch that cannot be recorded — concurrent kernels,
// atomics, a PC beyond the encoding, or a configuration asking for the
// reference interpreter — first drains pending pricing, then
// invalidates the trace, and it and the rest of the run execute live on
// the same GPU.
type TraceBuilder struct {
	g  *GPU
	rt *RunTrace
	fn isa.Functional

	// price runs the timing model over one recorded launch on g. It is a
	// field so tests can inject pricing failures.
	price func(*isa.LaunchTrace) error

	// Pipelined capture hands recorded launches, in launch order, to one
	// pricing goroutine through q; done closes when that goroutine exits.
	// Both are nil until the first launch and again after stop.
	pipelined bool
	q         chan *isa.LaunchTrace
	done      chan struct{}

	// mu guards the pricing goroutine's first failure. panicked marks a
	// failure that was a recovered panic; Wait re-raises those.
	mu       sync.Mutex
	failure  error
	panicked bool
}

// Trace returns the accumulated trace. The trace answers CompatibleWith
// truthfully even when capture saw something unrecordable — it is then
// permanently incompatible, with the reason preserved. On a pipelined
// capture, call Wait first.
func (tb *TraceBuilder) Trace() *RunTrace { return tb.rt }

func (tb *TraceBuilder) add(lt *isa.LaunchTrace) {
	if tb.rt.invalid != "" {
		return
	}
	tb.rt.launches = append(tb.rt.launches, lt)
	tb.rt.bytes += lt.Bytes()
}

// invalidate marks the trace permanently non-replayable and drops any
// recorded launches: a partial trace must never drive a replay.
func (tb *TraceBuilder) invalidate(reason string) {
	if tb.rt.invalid == "" {
		tb.rt.invalid = reason
	}
	tb.rt.launches = nil
	tb.rt.bytes = 0
}

// Capture attaches a trace recorder to the GPU: every subsequent launch
// is recorded into the returned builder's RunTrace and priced before
// Launch returns, so Stats are current after every launch. Recording
// does not perturb Stats.
func (g *GPU) Capture() *TraceBuilder {
	tb := &TraceBuilder{g: g, rt: &RunTrace{cfg: g.cfg}, price: g.priceTrace}
	g.capture = tb
	return tb
}

// CapturePipelined is Capture with pricing moved off the launching
// goroutine: Launch returns once the launch has run functionally and its
// recording is queued, and one pricing goroutine times the recordings in
// launch order while the host program carries on. Stats and the trace
// are complete only after Wait, which the caller must call once the run
// is over — also when the run failed or panicked — so the goroutine never
// outlives it. A pricing failure makes every later Launch fail with it.
func (g *GPU) CapturePipelined() *TraceBuilder {
	tb := g.Capture()
	tb.pipelined = true
	return tb
}

// Wait drains a pipelined capture: it closes the handoff, waits for the
// pricing goroutine to exit and returns the first pricing error. A panic
// while pricing is re-raised here, on the caller's goroutine, with the
// pricing goroutine's stack in its message. Wait is a no-op returning nil
// on a Capture builder and is safe to call more than once.
func (tb *TraceBuilder) Wait() error {
	err := tb.stop()
	if err != nil {
		tb.invalidate("launch failed: " + err.Error())
		if tb.panicked {
			panic(err)
		}
	}
	return err
}

// launch runs one launch of a capturing GPU. It reports handled=false
// when the launch must instead run live, which is the case for every
// launch once the trace is invalid.
func (tb *TraceBuilder) launch(specs []LaunchSpec) (handled bool, err error) {
	if err := tb.pricingErr(); err != nil {
		return true, tb.abort(err)
	}
	if tb.rt.invalid != "" {
		return false, nil
	}
	cfg := &tb.g.cfg
	var reason string
	switch {
	case len(specs) != 1:
		// Concurrent kernels share the dispatch cursors, so their CTA
		// placement is coupled in ways the validity predicate does not
		// model.
		reason = fmt.Sprintf("concurrent launch of %d kernels", len(specs))
	case usesAtomics(specs[0].Kernel):
		reason = fmt.Sprintf("kernel %s uses atomics", specs[0].Kernel.Name)
	case cfg.ReferenceInterp:
		reason = fmt.Sprintf("config %s requests the reference interpreter", cfg.Name)
	}
	if reason != "" {
		return tb.unrecordable(reason)
	}
	sp := specs[0]
	if err := tb.g.checkLaunch(sp.Kernel, sp.Launch); err != nil {
		return true, tb.abort(err)
	}
	rec, err := isa.NewLaunchRecorder(sp.Kernel, sp.Launch)
	if err != nil {
		return tb.unrecordable(err.Error())
	}
	if err := tb.fn.LaunchRecorded(sp.Kernel, sp.Launch, sp.Mem, rec); err != nil {
		return true, tb.abort(err)
	}
	lt := rec.Finalize()
	tb.add(lt)
	if !tb.pipelined {
		if err := tb.price(lt); err != nil {
			tb.invalidate("launch failed: " + err.Error())
			return true, err
		}
		return true, nil
	}
	if tb.q == nil {
		tb.q = make(chan *isa.LaunchTrace, pricingQueue)
		tb.done = make(chan struct{})
		go tb.pricer(tb.q, tb.done)
	}
	tb.q <- lt
	return true, nil
}

// unrecordable drains pending pricing and invalidates the trace, so the
// launch runs live on a GPU no other goroutine touches.
func (tb *TraceBuilder) unrecordable(reason string) (bool, error) {
	if err := tb.stop(); err != nil {
		return true, tb.abort(err)
	}
	tb.invalidate(reason)
	return false, nil
}

// abort ends capture after a failed launch: it stops pricing and
// invalidates the trace. A pricing failure takes precedence over err, as
// it belongs to an earlier launch.
func (tb *TraceBuilder) abort(err error) error {
	if perr := tb.stop(); perr != nil {
		err = perr
	}
	tb.invalidate("launch failed: " + err.Error())
	return err
}

// stop closes the pricing handoff, waits for the goroutine to exit and
// returns its first failure. Every path that ends pipelining goes
// through it, so the launching goroutine alone owns the GPU afterwards.
func (tb *TraceBuilder) stop() error {
	if tb.q != nil {
		close(tb.q)
		<-tb.done
		tb.q, tb.done = nil, nil
	}
	return tb.pricingErr()
}

func (tb *TraceBuilder) pricingErr() error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.failure
}

// pricer is the pricing goroutine: it times each queued launch in order
// until the handoff closes. After a failure it keeps draining the queue
// without pricing, so a sender never blocks on a dead goroutine.
func (tb *TraceBuilder) pricer(q <-chan *isa.LaunchTrace, done chan<- struct{}) {
	defer close(done)
	for lt := range q {
		if tb.pricingErr() == nil {
			tb.priceOne(lt)
		}
	}
}

// priceOne prices one launch, recording an error or a recovered panic as
// the capture's failure.
func (tb *TraceBuilder) priceOne(lt *isa.LaunchTrace) {
	defer func() {
		if v := recover(); v != nil {
			tb.mu.Lock()
			tb.failure = fmt.Errorf("gpusim: pricing kernel %s panicked: %v\n%s", lt.Kernel.Name, v, debug.Stack())
			tb.panicked = true
			tb.mu.Unlock()
		}
	}()
	if err := tb.price(lt); err != nil {
		tb.mu.Lock()
		tb.failure = err
		tb.mu.Unlock()
	}
}

// Replay drives the GPU's timing model from a recorded trace instead of
// executing kernels. It fails up front when the trace is incompatible
// with the GPU's configuration (see RunTrace.CompatibleWith); it never
// partially replays. Callers wanting strict-placement replay check
// CompatibleWith themselves before calling.
func (g *GPU) Replay(rt *RunTrace) error {
	if err := rt.CompatibleWith(&g.cfg, false); err != nil {
		return err
	}
	for _, lt := range rt.launches {
		if err := g.priceTrace(lt); err != nil {
			return err
		}
	}
	return nil
}

// priceTrace runs the timing model over one recorded launch.
func (g *GPU) priceTrace(lt *isa.LaunchTrace) error {
	return g.runLaunch([]*runSpec{{
		k: lt.Kernel, launch: lt.Launch, trace: lt, kStats: NewStats(g.cfg.Name),
	}})
}

// usesAtomics reports whether the kernel contains an atomic instruction.
func usesAtomics(k *isa.Kernel) bool {
	for i := range k.Instrs {
		if k.Instrs[i].Op == isa.OpAtom {
			return true
		}
	}
	return false
}
