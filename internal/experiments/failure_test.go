package experiments

import (
	"fmt"
	"math"
	"testing"

	"chopper"
	"chopper/internal/exec"
	"chopper/internal/workloads"
)

func TestFailureStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	results, tbl, err := RunFailureStudy(true, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(tbl.Rows) != 2 {
		t.Fatalf("want 2 modes: %+v", results)
	}
	for _, r := range results {
		if r.WithFailure <= r.Healthy {
			t.Fatalf("%s: losing 32 of 112 cores mid-run must cost time: %.1f vs %.1f",
				r.Mode, r.WithFailure, r.Healthy)
		}
		if r.OverheadPct > 200 {
			t.Fatalf("%s: recovery overhead implausible: %.1f%%", r.Mode, r.OverheadPct)
		}
	}
}

// TestPCAFailureRecomputation guards the deflate-snapshot in PCA's power
// iteration (flagged by chopperlint's closurecapture rule): the transform
// closure captures the components extracted so far, the input RDD is cached
// and reused across iterations, and a node loss recomputes lost partitions
// from lineage — re-running lazy closures long after they were defined. The
// recomputed result must match the healthy run exactly.
func TestPCAFailureRecomputation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p := workloads.NewPCA()
	p.Rows = 3000
	p.Dim = 8
	bytes := p.DefaultInputBytes()

	run := func(fail bool) float64 {
		var opts []chopper.Option
		if fail {
			opts = append(opts, engine(func(e *exec.Engine) {
				e.AfterStage = func(done int) {
					if done == 4 {
						_ = e.KillNode("C")
					}
				}
			}))
		}
		_, res, err := runSession(p, bytes, opts...)
		if err != nil {
			t.Fatalf("pca run (fail=%v): %v", fail, err)
		}
		return res.Checksum
	}
	healthy, failed := run(false), run(true)
	if math.Abs(healthy-failed) > 1e-9*math.Abs(healthy) {
		t.Fatalf("recomputation diverged from healthy run: %v vs %v", healthy, failed)
	}
}

func TestModelAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, mae, err := ModelAccuracy(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 4 {
		t.Fatalf("accuracy table too small: %d rows", len(tbl.Rows))
	}
	// The paper calls the model coarse but useful; demand it stays within
	// a factor-of-two band on average.
	if mae > 100 {
		t.Fatalf("mean absolute prediction error implausible: %.1f%%", mae)
	}
	if mae <= 0 {
		t.Fatalf("zero error is suspicious for an out-of-sample check")
	}
}

func TestOnlineRetraining(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, err := OnlineRetraining(true, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("want vanilla + 3 rounds: %+v", tbl.Rows)
	}
	parse := func(s string) float64 {
		var v float64
		if _, err := fmt.Sscanf(s, "%f", &v); err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	vanilla := parse(tbl.Rows[0][1])
	for i := 1; i < len(tbl.Rows); i++ {
		tuned := parse(tbl.Rows[i][1])
		if tuned >= vanilla {
			t.Fatalf("round %d should beat vanilla: %v vs %v", i, tuned, vanilla)
		}
	}
	// The DB must grow between rounds.
	if tbl.Rows[1][2] == tbl.Rows[3][2] {
		t.Fatalf("production statistics should accumulate: %v", tbl.Rows)
	}
	// Retraining must not regress badly against the first tuned round.
	first, last := parse(tbl.Rows[1][1]), parse(tbl.Rows[3][1])
	if last > 1.15*first {
		t.Fatalf("online retraining regressed: %v -> %v", first, last)
	}
}

func TestSensitivityStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, err := SensitivityStudy(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 7 {
		t.Fatalf("want 7 scenarios: %d", len(tbl.Rows))
	}
	// CHOPPER must win in every scenario (the headline conclusion is not a
	// calibration artifact).
	for _, row := range tbl.Rows {
		var spark, tuned float64
		fmt.Sscanf(row[1], "%f", &spark)
		fmt.Sscanf(row[2], "%f", &tuned)
		if tuned >= spark {
			t.Fatalf("scenario %q: chopper (%v) should beat spark (%v)", row[0], tuned, spark)
		}
	}
}
