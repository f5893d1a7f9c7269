// Command baseline runs the benchmark over ten seeds, as its acceptance
// check does, and records the result in one schema: host, commit, the
// exact command, every workload with the reason it was chosen, every
// metric with its unit and layer, and per metric the median, quartiles,
// minimum and spread over the seeds. One traced run per workload adds the
// per-layer metrics and the epoch probe. It writes perfbench/baseline.json;
// run it from the repository root:
//
//	go -C perfbench run ./baseline
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

const (
	seeds   = 10 // untraced runs per workload, seeds 1..seeds
	outPath = "perfbench/baseline.json"
)

type metricDoc struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
	Layer  string   `json:"layer"`
}

type benchmarkDoc struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDoc `json:"end_to_end"`
	PerLayer []metricDoc `json:"per_layer"`
}

// summary is one metric over the seeds. Spread is the distance between
// the first and third quartiles as a share of the median, the quartiles
// computed like Python's statistics.quantiles(values, n=4).
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Spread float64   `json:"spread"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type epochPoint struct {
	Point        string  `json:"point"`
	SequentialS  float64 `json:"sequential_s"`
	Workers2E64S float64 `json:"workers2_epoch64_s"`
	Crossings    uint64  `json:"barrier_crossings"`
}

// report is what perfbench writes with -report.
type report struct {
	Figures map[string]value `json:"figures"`
	Epoch   []epochPoint     `json:"epoch_probe"`
	Notes   []string         `json:"notes"`
}

type workloadDoc struct {
	Name     string             `json:"name"`
	Why      string             `json:"why"`
	EndToEnd map[string]summary `json:"end_to_end"`
	// Figures are the report's workload-specific end-to-end figures
	// (throughputs, request latencies, failure fraction).
	Figures  map[string]summary `json:"figures"`
	PerLayer map[string]float64 `json:"per_layer"`
	// Traced is the traced run's report: per-layer self times, the
	// tracing overhead and the layer split.
	Traced map[string]value `json:"traced_figures"`
	Notes  []string         `json:"traced_notes"`
	Epoch  []epochPoint     `json:"epoch_probe,omitempty"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	// go -C perfbench runs this from the benchmark's directory.
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, "baseline:", err)
		os.Exit(1)
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "baseline:", err)
		os.Exit(1)
	}
}

func run() error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bench benchmarkDoc
	if err := json.Unmarshal(data, &bench); err != nil {
		return err
	}
	var metrics []metricDoc
	for _, m := range bench.EndToEnd {
		m.Layer = "end-to-end"
		metrics = append(metrics, m)
	}
	for _, m := range bench.PerLayer {
		m.Layer, _, _ = strings.Cut(m.Name, ".")
		metrics = append(metrics, m)
	}
	command := strings.Join(bench.Command, " ") +
		fmt.Sprintf(" --workload <name> --seed <n> --seconds %d --trace <0|1>", bench.RunSeconds)
	doc := map[string]any{
		"host":    host(),
		"commit":  commit(),
		"command": command,
		"seeds":   fmt.Sprintf("1..%d untraced, 1 traced", seeds),
		"metrics": metrics,
	}
	var workloads []workloadDoc
	for _, w := range bench.Workloads {
		wd := workloadDoc{Name: w.Name, Why: w.Why, EndToEnd: map[string]summary{}, Figures: map[string]summary{}}
		e2e, figures := map[string][]float64{}, map[string][]float64{}
		units := map[string]string{}
		for seed := 1; seed <= seeds; seed++ {
			res, rep, err := runOnce(bench, w.Name, seed, 0)
			if err != nil {
				return err
			}
			for name, v := range res.Metrics {
				e2e[name] = append(e2e[name], v.Value)
				units[name] = v.Unit
			}
			for name, v := range rep.Figures {
				if _, dup := res.Metrics[name]; !dup {
					figures[name] = append(figures[name], v.Value)
					units[name] = v.Unit
				}
			}
		}
		for name, vs := range e2e {
			wd.EndToEnd[name] = summarize(vs, units[name])
		}
		for name, vs := range figures {
			wd.Figures[name] = summarize(vs, units[name])
		}
		res, rep, err := runOnce(bench, w.Name, 1, 1)
		if err != nil {
			return err
		}
		wd.PerLayer = map[string]float64{}
		for name, v := range res.Metrics {
			wd.PerLayer[name] = v.Value
		}
		wd.Traced, wd.Notes, wd.Epoch = rep.Figures, rep.Notes, rep.Epoch
		workloads = append(workloads, wd)
	}
	doc["workloads"] = workloads
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(enc, '\n'), 0o644)
}

// runOnce runs the benchmark command and returns its result object and
// its report.
func runOnce(bench benchmarkDoc, workload string, seed, trace int) (*result, *report, error) {
	repPath, err := filepath.Abs(filepath.Join(".bench_build", "baseline-report.json"))
	if err != nil {
		return nil, nil, err
	}
	args := append(bench.Command[1:], "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(bench.RunSeconds), "--trace", strconv.Itoa(trace), "--report", repPath)
	if err := os.Remove(repPath); err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	cmd := exec.Command(bench.Command[0], args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, nil, fmt.Errorf("%s seed %d: %d of %d checks failed", workload, seed, res.Failed, res.Attempted)
	}
	data, err := os.ReadFile(repPath)
	if err != nil {
		return nil, nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: report: %w", workload, seed, err)
	}
	fmt.Fprintf(os.Stderr, "baseline: %s seed %d trace %d done\n", workload, seed, trace)
	return &res, &rep, nil
}

func summarize(vs []float64, unit string) summary {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := quartiles(s)
	med := q[1] // the middle quartile is the median
	sp := 0.0
	if med != 0 {
		sp = (q[2] - q[0]) / med
	}
	return summary{Median: med, Q1: q[0], Q3: q[2], Min: s[0], Spread: sp, Unit: unit, Values: vs}
}

// quartiles ports Python's statistics.quantiles(data, n=4) with its
// default exclusive method; sorted must be sorted and non-empty.
func quartiles(sorted []float64) [3]float64 {
	var out [3]float64
	ld := len(sorted)
	if ld == 1 {
		return [3]float64{sorted[0], sorted[0], sorted[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		out[i-1] = (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return out
}

func host() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return map[string]any{"nproc": runtime.NumCPU(), "cpu": cpu, "go": runtime.Version(),
		"os": runtime.GOOS + "/" + runtime.GOARCH}
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
