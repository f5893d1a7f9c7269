package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/kernels"
)

// metricDef is one metric of BENCHMARK.json. A per-layer metric's name
// starts with the module it belongs to, up to the first dot.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics every untraced run prints: each applies to
// every workload and is never 0. The workload-specific end-to-end figures
// (throughputs, request latencies, failure fraction) are printed by name
// in the report above the result line.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics every traced run prints, one group per module.
func perLayer() []metricDef {
	m := []metricDef{
		{"kernels.instance_s", "s", "lower", 0},
		{"kernels.check_s", "s", "lower", 0},
		{"isa.exec_s", "s", "lower", 0},
		{"isa.exec_ns_per_winstr", "ns", "lower", 0},
		{"isa.warptrace.record_s", "s", "lower", 0},
		{"isa.warptrace.bytes", "B", "lower", 0},
	}
	for _, b := range kernels.All() {
		m = append(m, metricDef{"gpusim.live_s." + b.Abbrev, "s", "lower", 0})
	}
	return append(m, []metricDef{
		{"gpusim.replay_s", "s", "lower", 0},
		{"gpusim.ns_per_cycle", "ns", "lower", 0},
		{"gpusim.stall.port_cycles", "cycles", "lower", 0},
		{"gpusim.stall.skip_cycles", "cycles", "lower", 0},
		{"gpusim.stall.sched_cycles", "cycles", "lower", 0},
		{"gpusim.sm.busy_cycles", "cycles", "higher", 0},
		{"gpusim.sm.idle_cycles", "cycles", "lower", 0},
		{"gpusim.clock.skipped_cycles", "cycles", "higher", 0},
		{"gpusim.dram.backlog_cycles", "cycles", "lower", 0},
		{"gpusim.replay_epoch_s", "s", "lower", 0},
		{"gpusim.barrier.crossings", "count", "lower", 0},
		{"experiments.trace.captures", "count", "lower", 0},
		{"experiments.trace.replays", "count", "higher", 0},
		{"experiments.trace.fallbacks", "count", "lower", 0},
		{"experiments.trace.replay_frac", "frac", "higher", 0},
		{"experiments.memo_hit_ms", "ms", "lower", 0},
		{"experiments.disk_hit_ms", "ms", "lower", 0},
		{"experiments.compute_ms", "ms", "lower", 0},
		{"store.get_stats_ms", "ms", "lower", 0},
		{"store.put_stats_ms", "ms", "lower", 0},
		{"store.load_trace_ms", "ms", "lower", 0},
		{"store.save_trace_ms", "ms", "lower", 0},
		{"store.hit_frac", "frac", "higher", 0},
		{"simd.handler_p50_ms", "ms", "lower", 0},
		{"simd.handler_p99_ms", "ms", "lower", 0},
		{"workloads.gen_s", "s", "lower", 0},
		{"cachesim.mix_s", "s", "lower", 0},
		{"cachesim.sweep_s", "s", "lower", 0},
		{"cachesim.sharing_s", "s", "lower", 0},
		{"cachesim.footprint_s", "s", "lower", 0},
		{"cachesim.sweep.probes_per_access", "count", "lower", 0},
		{"trace.events", "count", "lower", 0},
		{"trace.batches", "count", "lower", 0},
		{"core.pool_busy_frac", "frac", "higher", 0},
		{"perfbench.trace_overhead_frac", "frac", "lower", 0},
	}...)
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// epochPoint is the epoch probe on one architecture point: the replay of
// every trace sequentially and with two shard workers and 64-cycle epochs.
type epochPoint struct {
	Point        string  `json:"point"`
	SequentialS  float64 `json:"sequential_s"`
	Workers2E64S float64 `json:"workers2_epoch64_s"`
	Crossings    uint64  `json:"barrier_crossings"`
}

// result accumulates one run's checks, metrics and report.
type result struct {
	attempted, failed int
	metrics           map[string]value
	report            []string
	figures           map[string]value
	figureOrder       []string
	epoch             []epochPoint
	failures          []string
}

func newResult() *result { return &result{metrics: map[string]value{}, figures: map[string]value{}} }

// check counts one checked operation; a non-nil error is a failure.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

func (r *result) set(name string, v float64, unit string) {
	r.metrics[name] = value{Value: v, Unit: unit}
}

// note adds a report line.
func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// figure reports a named figure with its unit, without making it a
// BENCHMARK.json metric.
func (r *result) figure(name string, v float64, unit string) {
	if _, ok := r.figures[name]; !ok {
		r.figureOrder = append(r.figureOrder, name)
	}
	r.figures[name] = value{Value: v, Unit: unit}
}

// writeReport writes the report in machine-readable form: the figures,
// the epoch probe and the report lines.
func (r *result) writeReport(path string) error {
	data, err := json.MarshalIndent(struct {
		Figures map[string]value `json:"figures"`
		Epoch   []epochPoint     `json:"epoch_probe,omitempty"`
		Notes   []string         `json:"notes"`
	}{r.figures, r.epoch, r.report}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// emit prints the report, then the result object as the last line. Only
// the metrics of the requested set are in the object; every one of them
// must have been measured.
func (r *result) emit(w io.Writer, defs []metricDef) error {
	for _, line := range r.report {
		fmt.Fprintln(w, line)
	}
	for _, name := range r.figureOrder {
		v := r.figures[name]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", name, v.Value, v.Unit)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	out := map[string]value{}
	var missing []string
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = v
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation was checked")
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: getrusage:", err)
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kB
}

// quantile is the q-quantile of xs by linear interpolation (xs unsorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// repeatFor runs unit at least once and keeps starting another while the
// budget is not spent; a unit that would overrun the budget by more than
// half its length is not started. Each unit starts from a collected heap,
// so garbage left by the previous one is not charged to it. It returns
// each unit's wall time.
func repeatFor(budget time.Duration, unit func() error) ([]time.Duration, error) {
	var walls []time.Duration
	start := time.Now()
	for {
		runtime.GC()
		t0 := time.Now()
		if err := unit(); err != nil {
			return walls, err
		}
		d := time.Since(t0)
		walls = append(walls, d)
		if time.Since(start)+d/2 >= budget {
			return walls, nil
		}
	}
}
