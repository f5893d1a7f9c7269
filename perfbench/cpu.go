package main

import (
	"runtime"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sizes"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// warmCPU is cpu-suite's set-up: a 24-workload pass at medium, which
// grows the heap to the timed units' size.
func warmCPU(e *env) {
	e.dig.checkProfiles(sizes.Medium, core.CharacterizeCPUAllWorkersAt(workloads.All(), sizes.Medium, 0), e.res)
}

func runCPUSuite(e *env) error {
	ws := workloads.All()
	if err := warmSetup(e, func() { warmCPU(e) }); err != nil {
		return err
	}
	var memRefs uint64
	walls, err := repeatFor(e.budget, func() error {
		ps := core.CharacterizeCPUAllWorkersAt(ws, sizes.Medium, 0)
		memRefs = e.dig.checkProfiles(sizes.Medium, ps, e.res)
		return nil
	})
	if err != nil {
		return err
	}
	wall := median(seconds(walls))
	e.res.set("wall_s", wall, "s")
	e.res.note("units %d (24-workload passes at medium, default worker count)", len(walls))
	e.res.figure("wall_s", wall, "s")
	e.res.figure("cpu_mrefs_per_s", float64(memRefs)/1e6/wall, "Mref/s")
	return nil
}

func traceCPUSuite(e *env) error {
	ws := workloads.All()
	if err := warmSetup(e, func() { warmCPU(e) }); err != nil {
		return err
	}
	// The untraced unit is the pool pass probeCPU repeats with a span
	// around it and a registry attached.
	runtime.GC()
	t0 := time.Now()
	e.dig.checkProfiles(sizes.Medium, core.CharacterizeCPUAllObs(ws, sizes.Medium, 0, nil), e.res)
	untraced := time.Since(t0)
	runtime.GC()
	e.overhead(untraced, probeCPU(e, sizes.Medium))
	p, err := probeGPU(e, sizes.Test)
	if err != nil {
		return err
	}
	if _, err := probeReplay(e, sizes.Test, p.traces, []point{basePoint()}); err != nil {
		return err
	}
	return probeService(e)
}

// probeCPU times the workloads, trace, cachesim and core layers at one
// size: a pool pass with a registry attached (the pipeline's counters and
// per-workload busy time), then each workload serially on a harness with
// no consumers and with each consumer alone. It returns the pool pass's
// wall time.
func probeCPU(e *env, size sizes.Class) time.Duration {
	tr := e.tr
	ws := workloads.All()
	reg := obs.New()
	var ps []*core.CPUProfile
	wall := tr.timed("core.cpu_pool", tr.newID(), -1, func() {
		ps = core.CharacterizeCPUAllObs(ws, size, 0, reg)
	})
	e.dig.checkProfiles(size, ps, e.res)
	counters := reg.Counters()
	var busy uint64
	for name, v := range counters {
		if base, _ := obs.ParseName(name); base == "cpu.workload.wall_ns" {
			busy += v
		}
	}
	workers := reg.Gauges()["cpu.pool.workers"]
	e.res.set("core.pool_busy_frac", float64(busy)/(float64(wall.Nanoseconds())*float64(workers)), "frac")
	e.res.set("trace.events", float64(counters["cpu.trace.events"]), "count")
	e.res.set("trace.batches", float64(counters["cpu.trace.batches"]), "count")
	e.res.set("cachesim.sweep.probes_per_access",
		float64(counters["cpu.sweep.probes"])/float64(counters["cpu.sweep.accesses"]), "count")

	pass := func(name string, consumer func() trace.Consumer) time.Duration {
		var total time.Duration
		for _, w := range ws {
			var h *trace.Harness
			if consumer == nil {
				h = trace.NewHarness(workloads.Threads)
			} else {
				h = trace.NewHarness(workloads.Threads, consumer())
			}
			total += tr.timed(name, tr.newID(), -1, func() { w.RunAt(h, size) })
		}
		return total
	}
	gen := pass("workloads.gen", nil)
	e.res.set("workloads.gen_s", gen.Seconds(), "s")
	for _, c := range []struct {
		metric  string
		newCons func() trace.Consumer
	}{
		{"cachesim.mix", func() trace.Consumer { return &cachesim.Mix{} }},
		{"cachesim.sweep", func() trace.Consumer { return cachesim.NewSweep() }},
		{"cachesim.sharing", func() trace.Consumer { return cachesim.NewSharing() }},
		{"cachesim.footprint", func() trace.Consumer { return cachesim.NewDataFootprint() }},
	} {
		e.res.set(c.metric+"_s", (pass(c.metric, c.newCons) - gen).Seconds(), "s")
	}
	return wall
}
