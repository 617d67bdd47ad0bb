// Command chopperverify runs CHOPPER's correctness verifiers end to end
// over the built-in workloads (the same pipelines the examples/ programs
// build): for every workload it executes a vanilla run, forced uniform
// hash/range configurations at the extremes of the search grid, and the
// full CHOPPER pipeline (profile → optimize → tuned co-partitioned run),
// with
//
//   - the plan-IR verifier (internal/plan/verify) observing every job's
//     stage graph: acyclicity, shuffle boundaries at wide dependencies,
//     co-partitioned join inputs, partition counts within the executors'
//     memory budget, partitioner/key-type compatibility; and
//   - the configuration verifier (core.VerifySchemes) checking every
//     optimizer emission: known signatures, valid schemes, counts inside
//     the searched grid, join groups agreeing on one scheme, fixed stages
//     only retuned through inserted repartition phases.
//
// Usage:
//
//	chopperverify [-workload=all|kmeans|pca|sql|pagerank] [-shrink=N] [-v] [-json]
//
// Datasets are shrunk by -shrink (default 6) so the sweep stays fast;
// logical sizes and the cost model are unchanged, so the plans exercised
// are the real ones. The -json flag emits findings on stdout in the
// unified wire schema shared by the gate CLIs (tool/rule/pos/msg/
// severity); human-readable lines move to stderr. Exit status: 0 clean,
// 1 violations, 2 run error.
package main

import (
	"flag"
	"fmt"
	"os"

	"chopper"
	"chopper/internal/cluster"
	"chopper/internal/core"
	"chopper/internal/dag"
	"chopper/internal/lint"
	"chopper/internal/plan/extract"
	"chopper/internal/plan/verify"
	"chopper/internal/rdd"
	"chopper/internal/session"
	"chopper/internal/workloads"
)

func main() {
	workload := flag.String("workload", "all", "workload to verify (all, kmeans, pca, sql, pagerank)")
	shrink := flag.Int("shrink", 6, "dataset shrink factor for fast runs (1 = paper size)")
	verbose := flag.Bool("v", false, "list every run, not just violations")
	static := flag.Bool("static", false, "additionally extract each workload's plans statically (internal/plan/extract), verify them, and diff them against the vanilla run's submitted plans")
	jsonOut := flag.Bool("json", false, "emit findings on stdout in the unified wire-JSON schema")
	flag.Parse()
	os.Exit(run(*workload, *shrink, *verbose, *static, *jsonOut))
}

// reporter accumulates findings in the unified wire schema while printing
// human-readable lines (to stdout normally, stderr under -json, which
// reserves stdout for the array).
type reporter struct {
	json bool
	wire []lint.WireDiagnostic
}

func (r *reporter) finding(rule, pos, msg string) {
	r.wire = append(r.wire, lint.WireDiagnostic{
		Tool: "chopperverify", Rule: rule, Pos: pos, Msg: msg, Severity: "error",
	})
	out := os.Stdout
	if r.json {
		out = os.Stderr
	}
	_, _ = fmt.Fprintf(out, "%s: %s: %s\n", pos, rule, msg)
}

func run(name string, shrink int, verbose, static, jsonOut bool) int {
	var targets []workloads.Workload
	if name == "all" {
		targets = workloads.AllWithExtensions()
	} else {
		w, err := workloads.ByName(name)
		if err != nil {
			return fail(err)
		}
		targets = []workloads.Workload{w}
	}

	var ex *extract.Extractor
	if static {
		var err error
		if ex, err = extract.New("."); err != nil {
			return fail(err)
		}
	}

	rep := &reporter{json: jsonOut}
	for _, w := range targets {
		workloads.Shrink(w, shrink)
		if err := verifyWorkload(w, ex, verbose, rep); err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name(), err))
		}
	}
	if jsonOut {
		if err := lint.WriteWire(os.Stdout, rep.wire); err != nil {
			return fail(err)
		}
	}
	if len(rep.wire) > 0 {
		fmt.Fprintf(os.Stderr, "chopperverify: %d violation(s)\n", len(rep.wire))
		return 1
	}
	if verbose {
		fmt.Fprintln(os.Stderr, "chopperverify: all plans and configurations verified clean")
	}
	return 0
}

// verifyWorkload runs one workload under every configuration class with the
// verifiers observing, and prints each violation. When ex is non-nil it
// additionally extracts the workload's plans statically, verifies them, and
// diffs them against the vanilla run's submitted plans (the chopperplan
// drift gate, inline). Returns the count.
func verifyWorkload(w workloads.Workload, ex *extract.Extractor, verbose bool, r *reporter) error {
	// observe routes the plan verifier's findings (and, in the pipeline,
	// the configuration verifier's) to r instead of aborting the run.
	observe := func(label string) chopper.Option {
		return func(c *session.Config) {
			c.OnPlanViolations = func(vs []verify.Violation) {
				for _, v := range vs {
					r.finding("plan", w.Name()+"/"+label, v.String())
				}
			}
			c.OnSchemeViolations = func(_ string, vs []core.SchemeViolation) error {
				for _, v := range vs {
					r.finding("config", w.Name()+"/"+label, v.String())
				}
				return nil
			}
		}
	}
	step := func(label string) {
		if verbose {
			fmt.Fprintf(os.Stderr, "chopperverify: %s: %s\n", w.Name(), label)
		}
	}
	bytes := w.DefaultInputBytes()

	// Static extraction (-static): reconstruct the plans without running,
	// verify them, and capture the vanilla run below for the drift diff.
	var rep *extract.Report
	var cap extract.Capture
	if ex != nil {
		step("static-extract")
		var err error
		if rep, err = ex.Extract(w, bytes, core.DefaultParallelism); err != nil {
			return err
		}
		for _, v := range rep.Verify(verify.DefaultLimits(cluster.PaperCluster())) {
			r.finding("plan", w.Name()+"/static", v.String())
		}
	}

	// Vanilla plus the extremes of the search grid: the widest partition
	// counts stress the memory-bound check, the range scheme stresses the
	// partitioner-compatibility checks.
	forced := []struct {
		label string
		cfg   dag.StageConfigurator
	}{
		{"vanilla", nil},
		{"force-hash-2000", &core.ForceAll{Spec: dag.SchemeSpec{Scheme: rdd.SchemeHash, NumPartitions: 2000}}},
		{"force-range-100", &core.ForceAll{Spec: dag.SchemeSpec{Scheme: rdd.SchemeRange, NumPartitions: 100}}},
	}
	for _, f := range forced {
		step(f.label)
		opts := []chopper.Option{chopper.WithConfigurator(f.cfg), observe(f.label)}
		if rep != nil && f.cfg == nil {
			opts = append(opts, func(c *session.Config) { c.OnPlan = cap.Hook() })
		}
		sess := chopper.NewSession(opts...)
		if _, err := w.Run(sess.Context(), bytes); err != nil {
			return err
		}
	}
	if rep != nil {
		for _, d := range extract.Drift(rep, cap.Jobs()) {
			r.finding("drift", w.Name()+"/static", d)
		}
	}

	// The full pipeline: profiling sweep, optimization (configuration
	// verifier), tuned co-partitioned run (plan verifier over the retuned
	// stage graphs).
	step("chopper-pipeline")
	tuner := &chopper.Tuner{
		DB:             core.NewDB(),
		Plan:           chopper.TrialPlan{SizeFractions: []float64{0.5, 1.0}, Partitions: []int{150, 300, 450, 600}, Range: true},
		SessionOptions: []chopper.Option{observe("chopper-pipeline")},
	}
	app := chopper.AppFunc{AppName: w.Name(), Bytes: bytes, Fn: func(sess *chopper.Session, b int64) error {
		_, err := w.Run(sess.Context(), b)
		return err
	}}
	_, _, _, err := tuner.RunComparison(app)
	return err
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "chopperverify:", err)
	return 2
}
