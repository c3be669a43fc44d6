// Command perfbench is the Observatory's benchmark. It runs one named
// workload in this process, checks the program's outputs, and prints
// every metric by name and unit; the last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds and calls it):
//
//	perfbench --workload fleet-sync|fed-query-mix|repro-sweep \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the workload
// twice, untraced and then traced, and prints the per-layer metrics,
// the workload's own figures from the untraced pass, and the tracing
// overhead; it also writes the spans, the slowest controller traces and
// a per-layer summary under .bench_build/trace/. The process exits
// non-zero when an output gate fails. README.md describes the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: fleet-sync, fed-query-mix or repro-sweep")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured window per pass, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository checkout the benchmark runs in")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *root); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// result is the benchmark's final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// errGates marks a run whose result was printed but failed its gates.
var errGates = errors.New("output gates failed")

func run(name string, seed int64, seconds, trace int, root string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	golden := filepath.Join(root, "repro_output.txt")
	if _, err := os.Stat(golden); err != nil {
		return fmt.Errorf("not a repository checkout: %w", err)
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	data, err := os.MkdirTemp(build, "data-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(data)

	env := recordEnv(root, data, name, seed, trace)
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envJSON)

	pass := func(tag string, tr *Tracer, ref *outcome) (*outcome, error) {
		o := passOpts{seed: seed, seconds: seconds, data: filepath.Join(data, tag), golden: golden}
		if err := os.MkdirAll(o.data, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(o.data)
		return wl.run(o, tr, ref)
	}
	plain, err := pass("plain", nil, nil)
	if err != nil {
		return err
	}
	res := result{Attempted: plain.attempted, Failed: plain.failed, Metrics: make(map[string]metricValue)}
	errs := plain.errs
	if trace == 0 {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{plain.e2e[m.name], m.unit}
		}
	} else {
		tr := NewTracer()
		traced, err := pass("traced", tr, plain)
		if err != nil {
			return err
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		errs = append(errs, traced.errs...)
		for _, m := range perLayer() {
			v, ok := plain.workload[m.name]
			if !ok {
				v = traced.layers[m.name]
			}
			if e2e, ok := strings.CutPrefix(m.name, "trace.overhead."); ok && plain.e2e[e2e] != 0 {
				v = traced.e2e[e2e]/plain.e2e[e2e] - 1
			}
			res.Metrics[m.name] = metricValue{zeroNaN(v), m.unit}
		}
		if err := writeTrace(build, name, seed, tr, plain, traced); err != nil {
			return err
		}
	}
	res.Correct = len(errs) == 0 && res.Failed == 0
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s\n", e)
	}
	printSummary(os.Stderr, name, plain)
	if err := writeResult(build, name, seed, trace, env, res, plain); err != nil {
		return err
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) {
			return fmt.Errorf("metric %s is not a number", k)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errGates
	}
	return nil
}

// printSummary writes the human-readable view of the untraced pass.
func printSummary(w *os.File, name string, o *outcome) {
	fmt.Fprintf(w, "perfbench: %s: wall %.2fs, samples %v\n", name, o.wall.Seconds(), o.samples)
	if len(o.rates) > 0 {
		fmt.Fprintf(w, "  results acknowledged per second: %v\n", o.rates)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-18s %14.4f %s\n", m.name, o.e2e[m.name], m.unit)
	}
	keys := make([]string, 0, len(o.workload))
	for k := range o.workload {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-18s %14.4f\n", k, o.workload[k])
	}
}

// writeResult stores the run's metrics with its environment.
func writeResult(build, name string, seed int64, trace int, env runEnv, res result, o *outcome) error {
	dir := filepath.Join(build, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Env     runEnv               `json:"env"`
		Samples map[string]int       `json:"samples"`
		Series  map[string][]float64 `json:"series,omitempty"`
		Result  result               `json:"result"`
		Errors  []string             `json:"errors,omitempty"`
	}{env, o.samples, o.series, res, o.errs}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%s.json", name, seed, trace, time.Now().UTC().Format("20060102T150405")))
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
