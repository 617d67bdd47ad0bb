// Command chopperkey is the key-fact drift gate. The symbolic evaluator
// (internal/plan/extract) derives per-RDD KeyFacts for every job of the
// selected workloads, the workload runs for real on a shrunk dataset, and
// the statically predicted key shapes — operator, keyed state, partitioner
// presence/scheme/identity-group, dependency kinds — are diffed
// node-for-node against the runtime lineage.
//
// Any divergence means the KeyFacts lattice no longer models what the
// rdd layer actually builds, which would silently poison both the key-flow
// lint rules (run by chopperlint) and the cold-start seeding that consume
// it.
//
// Usage:
//
//	chopperkey [-json] [-workload=all|kmeans|pca|sql|pagerank] [-shrink=N]
//
// The -json flag emits all findings on stdout in the unified wire schema
// shared by the gate CLIs (tool/rule/pos/msg/severity); human-readable
// lines move to stderr. Exit status: 0 clean, 1 findings, 2 error.
package main

import (
	"flag"
	"fmt"
	"os"

	"chopper"
	"chopper/internal/core"
	"chopper/internal/lint"
	"chopper/internal/plan/extract"
	"chopper/internal/session"
	"chopper/internal/workloads"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings on stdout in the unified wire-JSON schema")
	workload := flag.String("workload", "all", "workloads to key-fact drift gate (all, kmeans, pca, sql, pagerank)")
	shrink := flag.Int("shrink", 6, "dataset shrink factor for the runtime half of the drift gate")
	flag.Parse()
	if flag.NArg() > 0 {
		os.Exit(fail(fmt.Errorf("takes no package arguments; the key-flow lint rules run under chopperlint")))
	}
	os.Exit(run(*jsonOut, *workload, *shrink))
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
		Tool: "chopperkey", Rule: rule, Pos: pos, Msg: msg, Severity: "error",
	})
	out := os.Stdout
	if r.json {
		out = os.Stderr
	}
	_, _ = fmt.Fprintf(out, "%s: %s: %s\n", pos, rule, msg)
}

func run(jsonOut bool, workload string, shrink int) int {
	r := &reporter{json: jsonOut}
	if err := driftGate(workload, shrink, r); err != nil {
		return fail(err)
	}
	if jsonOut {
		if err := lint.WriteWire(os.Stdout, r.wire); err != nil {
			return fail(err)
		}
	}
	if len(r.wire) > 0 {
		fmt.Fprintf(os.Stderr, "chopperkey: %d finding(s)\n", len(r.wire))
		return 1
	}
	return 0
}

// driftGate extracts KeyFacts for each selected workload, runs it for
// real, and diffs the static key shapes against the runtime lineage.
func driftGate(name string, shrink int, r *reporter) error {
	var targets []workloads.Workload
	if name == "all" {
		targets = workloads.AllWithExtensions()
	} else {
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		targets = []workloads.Workload{w}
	}
	ex, err := extract.New(".")
	if err != nil {
		return err
	}
	for _, w := range targets {
		workloads.Shrink(w, shrink)
		bytes := w.DefaultInputBytes()
		rep, err := ex.Extract(w, bytes, core.DefaultParallelism)
		if err != nil {
			return err
		}
		var keys extract.KeyCapture
		sess := chopper.NewSession(func(c *session.Config) { c.OnPlan = keys.Hook() })
		if _, err := w.Run(sess.Context(), bytes); err != nil {
			return err
		}
		for _, d := range extract.KeyDrift(rep, keys.Jobs()) {
			r.finding("keyfacts", w.Name(), d)
		}
	}
	return nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "chopperkey:", err)
	return 2
}
