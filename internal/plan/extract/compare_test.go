package extract_test

import (
	"strings"
	"testing"

	"chopper/internal/core"
	"chopper/internal/plan/extract"
	"chopper/internal/workloads"
)

// staticCapture extracts a workload and rebuilds the CapturedJob list the
// runtime WOULD have produced if it matched the static plans exactly —
// the self-consistent baseline the edge-case tests perturb.
func staticCapture(t *testing.T, name string) (*extract.Report, []extract.CapturedJob) {
	t.Helper()
	ex := sharedExtractor(t)
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	workloads.Shrink(w, shrink)
	rep, err := ex.Extract(w, w.DefaultInputBytes(), core.DefaultParallelism)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]extract.CapturedJob, len(rep.Jobs))
	for i, j := range rep.Jobs {
		jobs[i] = extract.CapturedJob{Shapes: extract.Shape(j.Plan, j.Topo)}
	}
	return rep, jobs
}

// TestDriftEdgeCases pins Drift's behaviour on the degenerate inputs the
// gate can see in practice: an extractor that produced nothing, a runtime
// that submitted fewer jobs than predicted, and a stage pruned out of a
// submitted plan (the cache-warmth failure mode).
func TestDriftEdgeCases(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the workloads package")
	}
	rep, jobs := staticCapture(t, "sql")

	t.Run("self-consistent", func(t *testing.T) {
		if d := extract.Drift(rep, jobs); len(d) != 0 {
			t.Fatalf("static plans must not drift against themselves: %v", d)
		}
	})

	t.Run("empty-static-plan", func(t *testing.T) {
		d := extract.Drift(&extract.Report{}, jobs)
		if len(d) != 1 || !strings.Contains(d[0], "static extracted 0 jobs") {
			t.Fatalf("empty static report must yield exactly the job-count line, got %v", d)
		}
	})

	t.Run("job-count-mismatch", func(t *testing.T) {
		short := jobs[:len(jobs)-1]
		d := extract.Drift(rep, short)
		if len(d) == 0 || !strings.Contains(d[0], "job count") {
			t.Fatalf("missing runtime job must be reported as a job-count drift, got %v", d)
		}
		// The common prefix still matches: the only line is the count line.
		if len(d) != 1 {
			t.Fatalf("matching prefix jobs must not produce extra lines, got %v", d)
		}
	})

	t.Run("stage-pruned-at-runtime", func(t *testing.T) {
		pruned := make([]extract.CapturedJob, len(jobs))
		copy(pruned, jobs)
		last := len(pruned) - 1
		shapes := append([]extract.StageShape(nil), pruned[last].Shapes...)
		if len(shapes) < 2 {
			t.Fatalf("need a multi-stage job to prune, got %d stages", len(shapes))
		}
		pruned[last] = extract.CapturedJob{Shapes: shapes[1:]}
		d := extract.Drift(rep, pruned)
		if len(d) == 0 {
			t.Fatal("pruned runtime stage must be reported")
		}
		var sawCount bool
		for _, line := range d {
			if strings.Contains(line, "stage count") {
				sawCount = true
			}
		}
		if !sawCount {
			t.Fatalf("drift must include a stage-count line, got %v", d)
		}
	})
}

// TestKeyDriftEdgeCases gives the key-fact gate the same degenerate-input
// coverage as the plan gate.
func TestKeyDriftEdgeCases(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the workloads package")
	}
	rep, _ := staticCapture(t, "sql")
	jobs := make([]extract.CapturedKeyJob, len(rep.Jobs))
	for i, j := range rep.Jobs {
		jobs[i] = extract.CapturedKeyJob{Shapes: extract.StaticKeyShapes(j.Keys)}
	}

	if d := extract.KeyDrift(rep, jobs); len(d) != 0 {
		t.Fatalf("static key facts must not drift against themselves: %v", d)
	}
	if d := extract.KeyDrift(&extract.Report{}, jobs); len(d) != 1 || !strings.Contains(d[0], "0 jobs") {
		t.Fatalf("empty static report must yield exactly the job-count line, got %v", d)
	}
	if d := extract.KeyDrift(rep, jobs[:len(jobs)-1]); len(d) != 1 || !strings.Contains(d[0], "job count") {
		t.Fatalf("missing runtime job must be reported as a job-count drift, got %v", d)
	}
}
