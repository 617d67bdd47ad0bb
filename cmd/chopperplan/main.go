// Command chopperplan is the static plan-drift gate: it reconstructs every
// built-in workload's stage graphs WITHOUT running the workload — a
// symbolic evaluator (internal/plan/extract) interprets the Run method's
// source, replays its transformations against the real rdd API on a
// runner-less context, and intercepts the actions — then
//
//  1. checks the extracted plans against the plan-IR invariants
//     (internal/plan/verify): acyclicity, shuffle boundaries at wide
//     dependencies, co-partitioned joins, partition-count budgets; and
//  2. runs the workload for real (vanilla configuration, shrunk dataset)
//     and diffs the statically extracted stage graphs against the plans
//     the scheduler actually submits, job for job.
//
// Any divergence ("plan drift") fails the gate: either the workload's
// control flow has outgrown the evaluator's model, or a change to the
// rdd/dag layers silently altered the stage structure the paper's figures
// and the optimizer's configurations are keyed to.
//
// Usage:
//
//	chopperplan [-workload=all|kmeans|pca|sql|pagerank] [-shrink=N] [-v] [-json]
//
// The -json flag emits findings on stdout in the unified wire schema
// shared by the gate CLIs (tool/rule/pos/msg/severity); human-readable
// lines move to stderr. Exit status: 0 clean, 1 drift or invariant
// violations, 2 error.
package main

import (
	"flag"
	"fmt"
	"os"

	"chopper"
	"chopper/internal/cluster"
	"chopper/internal/core"
	"chopper/internal/lint"
	"chopper/internal/plan/extract"
	"chopper/internal/plan/verify"
	"chopper/internal/session"
	"chopper/internal/workloads"
)

func main() {
	workload := flag.String("workload", "all", "workload to gate (all, kmeans, pca, sql, pagerank)")
	shrink := flag.Int("shrink", 6, "dataset shrink factor for the runtime half of the diff")
	verbose := flag.Bool("v", false, "print every extracted plan, not just findings")
	jsonOut := flag.Bool("json", false, "emit findings on stdout in the unified wire-JSON schema")
	flag.Parse()
	os.Exit(run(*workload, *shrink, *verbose, *jsonOut))
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
		Tool: "chopperplan", Rule: rule, Pos: pos, Msg: msg, Severity: "error",
	})
	out := os.Stdout
	if r.json {
		out = os.Stderr
	}
	_, _ = fmt.Fprintf(out, "%s: %s: %s\n", pos, rule, msg)
}

func run(name string, shrink int, verbose, jsonOut bool) int {
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

	ex, err := extract.New(".")
	if err != nil {
		return fail(err)
	}

	r := &reporter{json: jsonOut}
	for _, w := range targets {
		workloads.Shrink(w, shrink)
		if err := gate(ex, w, verbose, r); err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name(), err))
		}
	}
	if jsonOut {
		if err := lint.WriteWire(os.Stdout, r.wire); err != nil {
			return fail(err)
		}
	}
	if len(r.wire) > 0 {
		fmt.Fprintf(os.Stderr, "chopperplan: %d finding(s)\n", len(r.wire))
		return 1
	}
	if verbose {
		fmt.Fprintln(os.Stderr, "chopperplan: all static plans verified and drift-free")
	}
	return 0
}

// gate extracts, verifies, runs and diffs one workload, reporting findings
// through r.
func gate(ex *extract.Extractor, w workloads.Workload, verbose bool, r *reporter) error {
	bytes := w.DefaultInputBytes()
	rep, err := ex.Extract(w, bytes, core.DefaultParallelism)
	if err != nil {
		return err
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "chopperplan: %s: %d static jobs\n", w.Name(), len(rep.Jobs))
		for i, j := range rep.Jobs {
			fmt.Fprintf(os.Stderr, "  job %d (%s):\n", i, j.Action)
			for _, sh := range extract.Shape(j.Plan, j.Topo) {
				fmt.Fprintf(os.Stderr, "    %s\n", sh)
			}
		}
	}

	lim := verify.DefaultLimits(cluster.PaperCluster())
	for _, v := range rep.Verify(lim) {
		r.finding("plan", w.Name(), v.String())
	}

	var cap extract.Capture
	sess := chopper.NewSession(func(c *session.Config) { c.OnPlan = cap.Hook() })
	if _, err := w.Run(sess.Context(), bytes); err != nil {
		return err
	}
	for _, d := range extract.Drift(rep, cap.Jobs()) {
		r.finding("drift", w.Name(), d)
	}
	return nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "chopperplan:", err)
	return 2
}
