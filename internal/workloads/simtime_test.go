package workloads_test

import (
	"math"
	"testing"

	"chopper/internal/cluster"
	"chopper/internal/dag"
	"chopper/internal/exec"
	"chopper/internal/metrics"
	"chopper/internal/rdd"
	"chopper/internal/workloads"
)

// simulatedEnd runs the named built-in (shrunk by 10) on a fresh
// paper-cluster engine, adjusted by setup, and returns the simulated time
// it ends at.
func simulatedEnd(t *testing.T, name string, coPart bool, setup func(*exec.Engine)) float64 {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	workloads.Shrink(w, 10)
	ctx := rdd.NewContext(300)
	eng := exec.New(cluster.PaperCluster(), cluster.DefaultCostParams(), ctx, metrics.NewCollector(name, "test"), coPart)
	dag.NewScheduler(ctx, eng)
	if setup != nil {
		setup(eng)
	}
	if _, err := w.Run(ctx, w.DefaultInputBytes()); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return eng.Now()
}

// TestSimulatedTimePinned pins, bit for bit, the simulated time every
// built-in ends at in both scheduling modes, plus one run with speculation
// and one that loses a node mid-job. Placement, the cost model, shuffle
// accounting and fault recovery all feed Eng.Now(), so a host-side rewrite
// of any of them that moves a single task fails here, naming the run.
func TestSimulatedTimePinned(t *testing.T) {
	speculate := func(e *exec.Engine) { e.Speculate = true }
	killC := func(e *exec.Engine) {
		stages := 0
		e.AfterStage = func(int) {
			if stages++; stages == 2 {
				if err := e.KillNode("C"); err != nil {
					t.Error(err)
				}
			}
		}
	}
	for _, run := range []struct {
		workload string
		coPart   bool
		setup    func(*exec.Engine)
		want     uint64
	}{
		{"kmeans", false, nil, 0x408c7d3d38d1c634},
		{"pca", false, nil, 0x408dcb80a1153898},
		{"sql", false, nil, 0x4075be31d3356420},
		{"pagerank", false, nil, 0x4091c30e3979b17c},
		{"kmeans", true, nil, 0x408cbee3f937f5ac},
		{"pca", true, nil, 0x408e7a67d036a3b5},
		{"sql", true, nil, 0x4075cca71e960766},
		{"pagerank", true, nil, 0x4091b17311375ea9},
		{"sql", false, speculate, 0x4075bbe3eaed38d2},
		{"kmeans", true, killC, 0x40942610c90cf78c},
	} {
		now := simulatedEnd(t, run.workload, run.coPart, run.setup)
		if bits := math.Float64bits(now); bits != run.want {
			t.Errorf("%s (co-partition-aware %v, adjusted %v) ends at %v (%#x), want %v (%#x)",
				run.workload, run.coPart, run.setup != nil, now, bits, math.Float64frombits(run.want), run.want)
		}
	}
}
