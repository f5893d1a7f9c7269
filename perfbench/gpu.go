package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/sizes"
)

// basePoint is the configuration gpu-live characterizes and every trace
// is captured on.
func basePoint() point { return point{Name: "base", Cfg: gpusim.Base()} }

// characterizeAll characterizes every benchmark at medium on one point
// through ctx, checking each result against its committed digest. It
// returns the summed cycles and warp instructions.
func characterizeAll(e *env, ctx *experiments.Context, p point) (cycles, winstrs uint64) {
	for _, b := range kernels.All() {
		var st *gpusim.Stats
		var err error
		e.tr.timed("perfbench.gpu_at", e.tr.newID(), -1, func() { st, err = ctx.GPUAt(b, sizes.Medium, p.Cfg) })
		if err == nil {
			err = e.dig.checkGPU(b.Abbrev, sizes.Medium, p.Name, st)
			cycles += st.Cycles
			winstrs += st.WarpInstrs
		}
		e.res.check(err)
	}
	return cycles, winstrs
}

// gpuLivePass is one cold characterization of the suite: a fresh context
// with its defaults (validation and replay on) reporting to reg (nil for
// none), every benchmark at medium on base. It returns the summed warp
// instructions.
func gpuLivePass(e *env, reg *obs.Registry) uint64 {
	ctx := experiments.NewContext()
	ctx.Obs = reg
	cycles, winstrs := characterizeAll(e, ctx, basePoint())
	var err error
	if cycles != e.dig.LiveCycles || winstrs != e.dig.LiveWInstrs {
		err = fmt.Errorf("gpu-live totals: %d cycles, %d warp instrs; committed %d, %d",
			cycles, winstrs, e.dig.LiveCycles, e.dig.LiveWInstrs)
	}
	e.res.check(err)
	return winstrs
}

// warmSetup is the set-up of the workloads whose timed units need no
// prefill: load the reference digests, then warm the process with the
// workload's own work, so the first timed unit does not also pay for heap
// growth. It runs three times and reports the median; a set-up shorter
// than the host's speed swings would time only one of them.
func warmSetup(e *env, warm func()) error {
	var ds []time.Duration
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		d, err := loadDigests()
		if err != nil {
			return err
		}
		e.dig = d
		warm()
		ds = append(ds, time.Since(t0))
	}
	e.res.set("setup_s", median(seconds(ds)), "s")
	return nil
}

// warmGPU characterizes every benchmark at the test size on base through
// a fresh context.
func warmGPU(e *env) {
	ctx := experiments.NewContext()
	for _, b := range kernels.All() {
		st, err := ctx.GPUAt(b, sizes.Test, gpusim.Base())
		if err == nil {
			err = e.dig.checkGPU(b.Abbrev, sizes.Test, "base", st)
		}
		e.res.check(err)
	}
}

func runGPULive(e *env) error {
	if err := warmSetup(e, func() { warmGPU(e) }); err != nil {
		return err
	}
	var winstrs uint64
	walls, err := repeatFor(e.budget, func() error {
		winstrs = gpuLivePass(e, nil)
		return nil
	})
	if err != nil {
		return err
	}
	wall := median(seconds(walls))
	e.res.set("wall_s", wall, "s")
	e.res.note("units %d (cold 12-benchmark passes at medium on base)", len(walls))
	e.res.figure("wall_s", wall, "s")
	e.res.figure("sim_winstr_per_s", float64(winstrs)/wall, "winstr/s")
	return nil
}

func traceGPULive(e *env) error {
	if err := warmSetup(e, func() { warmGPU(e) }); err != nil {
		return err
	}
	tr := e.tr
	e.tr = nil
	runtime.GC()
	t0 := time.Now()
	gpuLivePass(e, nil)
	untraced := time.Since(t0)
	e.tr = tr
	runtime.GC()
	t0 = time.Now()
	gpuLivePass(e, obs.New())
	e.overhead(untraced, time.Since(t0))
	p, err := probeGPU(e, sizes.Medium)
	if err != nil {
		return err
	}
	r, err := probeReplay(e, sizes.Medium, p.traces, []point{basePoint()})
	if err != nil {
		return err
	}
	covered := p.exec + r.replay + p.instance + p.check
	e.res.note("layer split: isa.exec_s + gpusim.replay_s + kernels.* = %.3f s of a %.3f s untraced pass (%.0f%%)",
		covered.Seconds(), untraced.Seconds(), 100*covered.Seconds()/untraced.Seconds())
	probeCPU(e, sizes.Test)
	return probeService(e)
}

// runReplaySweep captures the medium traces through a context in set-up,
// then replays the seeded points through the same context's trace cache.
func runReplaySweep(e *env) error {
	d, err := loadDigests()
	if err != nil {
		return err
	}
	e.dig = d
	points := drawPoints(e.seed)
	t0 := time.Now()
	ctx := experiments.NewContext()
	characterizeAll(e, ctx, basePoint())
	e.res.set("setup_s", time.Since(t0).Seconds(), "s")

	var winstrs, cycles uint64
	var perPoint []float64
	t1 := time.Now()
	for _, p := range points {
		tp := time.Now()
		c, w := characterizeAll(e, ctx, p)
		cycles += c
		winstrs += w
		perPoint = append(perPoint, time.Since(tp).Seconds())
	}
	wall := time.Since(t1).Seconds()
	tc := ctx.TraceCounters()
	if tc.Replays != uint64(len(points)*len(kernels.All())) || tc.Captures != uint64(len(kernels.All())) {
		err = fmt.Errorf("replay-sweep: %d captures, %d replays; want every point replayed", tc.Captures, tc.Replays)
	}
	e.res.check(err)
	e.res.set("wall_s", wall, "s")
	for i, p := range points {
		e.res.note("point %-16s %.3f s", p.Name, perPoint[i])
	}
	e.res.figure("wall_s", wall, "s")
	e.res.figure("sim_winstr_per_s", float64(winstrs)/wall, "winstr/s")
	e.res.figure("sim_ns_per_cycle", wall*1e9/float64(cycles), "ns")
	return nil
}

// traceReplaySweep captures directly through core instead, because the
// sequential and epoch-parallel replay probes need the trace objects.
func traceReplaySweep(e *env) error {
	d, err := loadDigests()
	if err != nil {
		return err
	}
	e.dig = d
	points := drawPoints(e.seed)
	traces := map[string]*gpusim.RunTrace{}
	for _, b := range kernels.All() {
		var st *gpusim.Stats
		var rt *gpusim.RunTrace
		e.tr.timed("core.capture", e.tr.newID(), -1, func() {
			st, rt, err = core.CaptureGPUAt(b, sizes.Medium, gpusim.Base(), false)
		})
		if err == nil {
			err = e.dig.checkGPU(b.Abbrev, sizes.Medium, "base", st)
		}
		e.res.check(err)
		traces[b.Abbrev] = rt
	}
	// The untraced unit is the first point's sequential replays, which
	// probeReplay repeats with a span around each and a registry attached.
	t0 := time.Now()
	for _, b := range kernels.All() {
		_, err := core.ReplayGPU(b, points[0].Cfg, traces[b.Abbrev])
		e.res.check(err)
	}
	untraced := time.Since(t0)
	r, err := probeReplay(e, sizes.Medium, traces, points)
	if err != nil {
		return err
	}
	e.overhead(untraced, r.perPoint[0])
	if _, err := probeGPU(e, sizes.Test); err != nil {
		return err
	}
	probeCPU(e, sizes.Test)
	return probeService(e)
}

// gpuProbe is what probeGPU measured.
type gpuProbe struct {
	traces                map[string]*gpusim.RunTrace
	instance, check, exec time.Duration
}

// probeGPU times the kernels, isa and gpusim layers by running what
// core.CaptureGPUAt runs, one public call at a time, on base at the given
// size: the capture pass (instance, timing run with recording, check),
// then each benchmark on the functional interpreter alone and on the
// timing simulator without recording.
func probeGPU(e *env, size sizes.Class) (*gpuProbe, error) {
	tr := e.tr
	p := &gpuProbe{traces: map[string]*gpusim.RunTrace{}}
	capture := map[string]time.Duration{}
	var winstrs uint64
	var bytes int64
	for _, b := range kernels.All() {
		id := tr.newID()
		root := tr.start("core.capture", id, -1)
		var in *kernels.Instance
		p.instance += tr.timed("kernels.instance", id, root, func() { in = b.InstanceAt(size) })
		g, err := gpusim.New(gpusim.Base())
		if err != nil {
			return nil, err
		}
		tb := g.Capture()
		capture[b.Abbrev] = tr.timed("gpusim.run_capture", id, root, func() { err = in.Run(g) })
		if err == nil {
			p.check += tr.timed("kernels.check", id, root, func() { err = in.Check() })
		}
		tr.end(root)
		if err == nil {
			err = e.dig.checkGPU(b.Abbrev, size, "base", g.Stats)
		}
		e.res.check(err)
		p.traces[b.Abbrev] = tb.Trace()
		winstrs += g.Stats.WarpInstrs
		bytes += tb.Trace().Bytes()
	}

	var record time.Duration
	for _, b := range kernels.All() {
		id := tr.newID()
		in := b.InstanceAt(size)
		var err error
		p.exec += tr.timed("isa.exec", id, -1, func() { err = in.Run(&isa.Functional{}) })
		if err == nil {
			err = in.Check()
		}
		e.res.check(err)

		in = b.InstanceAt(size)
		g, err := gpusim.New(gpusim.Base())
		if err != nil {
			return nil, err
		}
		live := tr.timed("gpusim.live", id, -1, func() { err = in.Run(g) })
		if err == nil {
			err = e.dig.checkGPU(b.Abbrev, size, "base", g.Stats)
		}
		e.res.check(err)
		record += capture[b.Abbrev] - live
		e.res.set("gpusim.live_s."+b.Abbrev, live.Seconds(), "s")
	}
	e.res.set("kernels.instance_s", p.instance.Seconds(), "s")
	e.res.set("kernels.check_s", p.check.Seconds(), "s")
	e.res.set("isa.exec_s", p.exec.Seconds(), "s")
	e.res.set("isa.exec_ns_per_winstr", float64(p.exec.Nanoseconds())/float64(winstrs), "ns")
	e.res.set("isa.warptrace.record_s", record.Seconds(), "s")
	e.res.set("isa.warptrace.bytes", float64(bytes), "B")
	return p, nil
}

// replayProbe is what probeReplay measured.
type replayProbe struct {
	replay   time.Duration
	perPoint []time.Duration
}

// probeReplay replays every trace on each point twice: sequentially, with
// a registry attached for the timing model's counters, and epoch-parallel
// (two shard workers, 64-cycle epochs) for the epoch engine's cost and
// barrier crossings. Both must match the committed live digests.
func probeReplay(e *env, size sizes.Class, traces map[string]*gpusim.RunTrace, points []point) (*replayProbe, error) {
	tr := e.tr
	seqReg, epochReg := obs.New(), obs.New()
	r := &replayProbe{}
	var cycles uint64
	var epochTotal time.Duration
	for _, p := range points {
		var seq, epoch time.Duration
		before := epochReg.Counters()["gpusim.barrier.crossings"]
		for _, b := range kernels.All() {
			rt := traces[b.Abbrev]
			var st *gpusim.Stats
			var err error
			seq += tr.timed("gpusim.replay", tr.newID(), -1, func() { st, err = core.ReplayGPUObs(b, p.Cfg, rt, seqReg) })
			if err == nil {
				err = e.dig.checkGPU(b.Abbrev, size, p.Name, st)
				cycles += st.Cycles
			}
			e.res.check(err)

			cfg := p.Cfg
			cfg.ShardWorkers, cfg.EpochCycles = 2, 64
			epoch += tr.timed("gpusim.replay_epoch", tr.newID(), -1, func() { st, err = core.ReplayGPUObs(b, cfg, rt, epochReg) })
			if err == nil {
				err = e.dig.checkGPU(b.Abbrev, size, p.Name, st)
			}
			e.res.check(err)
		}
		crossings := epochReg.Counters()["gpusim.barrier.crossings"] - before
		e.res.note("epoch probe %-16s sequential %.3f s  workers=2 epoch=64 %.3f s  barrier crossings %d",
			p.Name, seq.Seconds(), epoch.Seconds(), crossings)
		e.res.epoch = append(e.res.epoch, epochPoint{p.Name, seq.Seconds(), epoch.Seconds(), crossings})
		r.perPoint = append(r.perPoint, seq)
		r.replay += seq
		epochTotal += epoch
	}
	e.res.set("gpusim.replay_s", r.replay.Seconds(), "s")
	e.res.set("gpusim.ns_per_cycle", float64(r.replay.Nanoseconds())/float64(cycles), "ns")
	e.res.set("gpusim.replay_epoch_s", epochTotal.Seconds(), "s")
	e.res.set("gpusim.barrier.crossings", float64(epochReg.Counters()["gpusim.barrier.crossings"]), "count")
	sums := map[string]uint64{}
	for name, v := range seqReg.Counters() {
		base, _ := obs.ParseName(name)
		sums[base] += v
	}
	for _, name := range []string{
		"gpusim.stall.port_cycles", "gpusim.stall.skip_cycles", "gpusim.stall.sched_cycles",
		"gpusim.sm.busy_cycles", "gpusim.sm.idle_cycles", "gpusim.clock.skipped_cycles",
		"gpusim.dram.backlog_cycles",
	} {
		e.res.set(name, float64(sums[name]), "cycles")
	}
	return r, nil
}
