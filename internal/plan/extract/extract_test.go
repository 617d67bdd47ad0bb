package extract_test

import (
	"sync"
	"testing"

	"chopper"
	"chopper/internal/cluster"
	"chopper/internal/core"
	"chopper/internal/plan/extract"
	"chopper/internal/plan/verify"
	"chopper/internal/session"
	"chopper/internal/workloads"
)

// shrink keeps the runtime halves of the comparisons fast; the extracted
// plans are shape-identical at any physical scale.
const shrink = 8

var (
	extractorOnce sync.Once
	extractor     *extract.Extractor
	extractorErr  error
)

// sharedExtractor type-checks the workloads package once for all tests.
func sharedExtractor(t *testing.T) *extract.Extractor {
	t.Helper()
	extractorOnce.Do(func() {
		extractor, extractorErr = extract.New(".")
	})
	if extractorErr != nil {
		t.Fatalf("building extractor: %v", extractorErr)
	}
	return extractor
}

// TestStaticMatchesRuntime is the acceptance check from the issue: for
// every built-in workload, the statically extracted stage graphs must be
// isomorphic to the plans the scheduler actually submits, job for job.
func TestStaticMatchesRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and runs every workload")
	}
	ex := sharedExtractor(t)
	for _, name := range []string{"kmeans", "pca", "sql", "pagerank"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			workloads.Shrink(w, shrink)
			bytes := w.DefaultInputBytes()

			rep, err := ex.Extract(w, bytes, core.DefaultParallelism)
			if err != nil {
				t.Fatalf("static extraction failed: %v", err)
			}
			if len(rep.Jobs) == 0 {
				t.Fatal("static extraction produced no jobs")
			}

			// The extracted plans must satisfy the plan-IR invariants on
			// their own, before any comparison with the runtime.
			lim := verify.DefaultLimits(cluster.PaperCluster())
			if vs := rep.Verify(lim); len(vs) != 0 {
				for _, v := range vs {
					t.Errorf("static plan violation: %s", v)
				}
			}

			var cap extract.Capture
			sess := chopper.NewSession(func(c *session.Config) { c.OnPlan = cap.Hook() })
			if _, err := w.Run(sess.Context(), bytes); err != nil {
				t.Fatalf("runtime run failed: %v", err)
			}
			if drift := extract.Drift(rep, cap.Jobs()); len(drift) != 0 {
				for _, d := range drift {
					t.Errorf("plan drift: %s", d)
				}
			}
		})
	}
}

// TestExpectedJobCounts pins the number of actions each workload submits —
// a cheap canary that the symbolic evaluator follows the real control flow
// (loop bounds, skipped error guards) rather than bailing early.
func TestExpectedJobCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module")
	}
	ex := sharedExtractor(t)
	want := map[string]int{
		// kmeans: 2 cached counts + 2 jobs per init round (5) + 1 per Lloyd
		// iteration (3) + wssse + dominant-count.
		"kmeans": 2 + 2*5 + 3 + 2,
		// pca: count + mean + covariance + PowerIters*Components (3*2) +
		// projection.
		"pca": 1 + 1 + 1 + 3*2 + 1,
		// sql: two aggregation counts + the join collect.
		"sql": 3,
		// pagerank: count + rank sum + top-key.
		"pagerank": 3,
	}
	for name, n := range want {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ex.Extract(w, w.DefaultInputBytes(), core.DefaultParallelism)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Jobs) != n {
			t.Errorf("%s: extracted %d jobs, want %d", name, len(rep.Jobs), n)
		}
	}
}
