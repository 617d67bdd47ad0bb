// Command bench is the repository's benchmark (see README.md beside it and
// BENCHMARK.json at the repository root).
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//
// runs one workload in this process and prints, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1 (which also writes spans.json). --workload all runs every
// workload, each in a fresh child process; --aa N runs the A/A acceptance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"chopper/bench/internal/harness"
	"chopper/bench/internal/layers"
	"chopper/bench/internal/loads"
	"chopper/bench/internal/span"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed every input is derived from")
		seconds  = flag.Float64("seconds", runSeconds, "time box of the timed section")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and spans.json")
		outDir   = flag.String("outdir", filepath.Join("bench", "out"), "directory for temp stores, spans.json and reports")
		report   = flag.String("report", "", "also write the full report (rounds, env) as JSON to this file")
		aa       = flag.Int("aa", 0, "run the A/A acceptance: two back-to-back sets of N runs per workload")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		out, err := specJSON()
		if err != nil {
			fatal(err)
		}
		_, _ = os.Stdout.Write(out) // nothing to do if stdout is gone
		return
	}
	// The numbers are defined at two Ps; the load generators never use
	// more than two goroutines or connections either.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *aa > 0:
		if err := runAA(*aa, *seconds, *outDir); err != nil {
			fatal(err)
		}
	case *workload == "all":
		if err := runAll(*seed, *seconds, *trace != 0, *outDir); err != nil {
			fatal(err)
		}
	default:
		if err := runOne(*workload, *seed, *seconds, *trace != 0, *outDir, *report); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// fullReport is what --report writes: the harness report plus the layer
// table of a traced run.
type fullReport struct {
	*harness.Report
	GOMAXPROCS int                `json:"gomaxprocs"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// runOne runs a single workload in this process.
func runOne(name string, seed int64, seconds float64, trace bool, outDir, reportPath string) error {
	var w harness.Workload
	for _, c := range loads.All() {
		if c.Name() == name {
			w = c
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg := harness.DefaultConfig(seed, seconds, outDir)
	if trace {
		cfg.Tracer = span.New()
	}
	rep, err := harness.Run(w, cfg)
	if err != nil {
		return err
	}
	full := fullReport{Report: rep, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	listed, values := endToEnd, rep.EndToEnd
	if trace {
		lay, lrep, err := layers.Run(seed, outDir, cfg.Tracer)
		if err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
		rep.Attempted += lrep.Attempted
		rep.Failed += lrep.Failed
		full.Layers = lay
		listed, values = perLayer, map[string]float64{}
		for _, m := range []map[string]float64{lay, rep.Runtime, rep.Env} {
			for k, v := range m {
				values[k] = v
			}
		}
		if err := cfg.Tracer.WriteJSON(filepath.Join(outDir, "spans.json")); err != nil {
			return err
		}
	}
	metrics, err := metricsJSON(listed, values)
	if err != nil {
		return err
	}
	printReport(full, listed, values)
	if reportPath != "" {
		data, err := json.MarshalIndent(full, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, data, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printReport prints every metric by name with its unit, then the env
// figures that say whether to believe them.
func printReport(r fullReport, listed []Metric, values map[string]float64) {
	fmt.Printf("workload %s seed %d GOMAXPROCS %d: %d ops attempted, %d failed\n",
		r.Workload, r.Seed, r.GOMAXPROCS, r.Attempted, r.Failed)
	for _, m := range listed {
		fmt.Printf("  %-34s %14.4f %s\n", m.Name, values[m.Name], m.Unit)
	}
	keys := make([]string, 0, len(r.Env))
	for k := range r.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, shown := values[k]; !shown {
			fmt.Printf("  %-34s %14.4f\n", k, r.Env[k])
		}
	}
}
