// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator, the CPU pipeline or the service, checks
// every output against committed digests, and prints its metrics. The
// last line of standard output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics instead, by timing calls into
// each module's public functions from this package and keeping the spans
// in memory until the run ends. Both lists, with units, are in
// BENCHMARK.json at the repository root; the report lines above the
// result name every other figure with its unit.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload gpu-live --seed 1 --seconds 20 --trace 0
//
// Per-layer metrics of a layer the workload itself exercises come from
// the workload's inputs (medium GPU probes on gpu-live, the drawn points
// on replay-sweep, medium CPU probes on cpu-suite, the request mix on
// serve-mixed); the other layers are measured by small fixed probes at the
// test size, so every traced run reports every layer.
//
// wall_s is the median wall time of one unit of the timed phase: a cold
// 12-benchmark pass (gpu-live), the sweep of the four drawn points
// (replay-sweep; one per run, since the memo would answer a second), a
// 24-workload pass (cpu-suite), or a round of the paper figures' requests
// from two clients over a restored store snapshot (serve-mixed). The
// baseline command records a multi-seed run of every workload in
// baseline.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// buildDir, relative to the repository root the benchmark runs from, holds
// the build, the scratch stores of a run and the span files; it is in
// .gitignore.
const buildDir = ".bench_build"

// workload is one named benchmark workload.
type workload struct {
	name, why string
	run       func(*env) error // untraced: end-to-end metrics
	traced    func(*env) error // traced: per-layer metrics
}

var allWorkloads = []workload{
	{"gpu-live", "cold 12-benchmark characterization at medium on base: the first run every user pays; the interpreter does a third of it",
		runGPULive, traceGPULive},
	{"replay-sweep", "seeded design-space points replayed from captured traces: timing model alone, separating it from interpreter wins",
		runReplaySweep, traceReplaySweep},
	{"cpu-suite", "all 24 CPU workloads through the Pin-style pipeline: no GPU code, so GPU changes must leave it unchanged",
		runCPUSuite, traceCPUSuite},
	{"serve-mixed", "two closed-loop clients replay the paper figures' requests on the service over a prefilled store: memo, disk and compute tiers, store writes",
		runServeMixed, traceServeMixed},
}

// env is one run's configuration and accumulated output.
type env struct {
	seed    uint64
	budget  time.Duration
	workdir string // scratch directory inside the checkout, removed at exit
	dig     *digests
	res     *result
	tr      *tracer // nil on untraced runs
}

// overhead reports the tracing overhead: the wall time of one unit run
// with spans recorded and a registry attached, against the same unit run
// without, in the same process.
func (e *env) overhead(untraced, traced time.Duration) {
	e.res.note("tracing overhead: traced unit %.3f s, untraced unit %.3f s, difference %.3f s",
		traced.Seconds(), untraced.Seconds(), (traced - untraced).Seconds())
	e.res.set("perfbench.trace_overhead_frac", (traced-untraced).Seconds()/untraced.Seconds(), "frac")
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed")
	secs := flag.Int("seconds", 20, "how long the timed phase measures")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	writeTo := flag.String("write-digests", "", "regenerate the committed digest table into `file` and exit")
	reportTo := flag.String("report", "", "also write the report's figures, epoch probe and lines as JSON to `file`")
	flag.Parse()
	if *writeTo != "" {
		if err := writeDigests(*writeTo); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var w *workload
	for i := range allWorkloads {
		if allWorkloads[i].name == *name {
			w = &allWorkloads[i]
		}
	}
	if w == nil || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds ≥ 1, -trace 0 or 1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	workdir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(workdir)
	e := &env{seed: *seed, budget: time.Duration(*secs) * time.Second, workdir: workdir, res: newResult()}
	e.res.note("perfbench workload=%s seed=%d seconds=%d trace=%d", w.name, *seed, *secs, *traced)
	defs, fn := endToEnd, w.run
	if *traced == 1 {
		e.tr = newTracer()
		defs, fn = perLayer(), w.traced
	}
	start := time.Now()
	if err := fn(e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if e.tr == nil {
		e.res.set("peak_rss_mb", peakRSSMB(), "MB")
		e.res.figure("peak_rss_mb", e.res.metrics["peak_rss_mb"].Value, "MB")
		e.res.figure("setup_s", e.res.metrics["setup_s"].Value, "s")
		e.res.figure("fail_frac", float64(e.res.failed)/float64(max(e.res.attempted, 1)), "frac")
	} else {
		spans := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		if err := e.tr.write(spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		e.res.note("spans written to %s", spans)
		self := layerSelfTimes(e.tr.snapshot())
		layers := make([]string, 0, len(self))
		for l := range self {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			e.res.figure("self_s."+l, self[l], "s")
		}
	}
	e.res.note("run wall %.3f s, %d checked operations, %d failed", time.Since(start).Seconds(), e.res.attempted, e.res.failed)
	if err := e.res.emit(os.Stdout, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if *reportTo != "" {
		if err := e.res.writeReport(*reportTo); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
			return 1
		}
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
