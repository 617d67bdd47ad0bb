package workloads_test

import (
	"hash/fnv"
	"math"
	"testing"

	"chopper/internal/cluster"
	"chopper/internal/dag"
	"chopper/internal/exec"
	"chopper/internal/metrics"
	"chopper/internal/rdd"
	"chopper/internal/trace"
	"chopper/internal/workloads"
)

// pinnedRun runs the named built-in (shrunk by 10) on a fresh paper-cluster
// engine, adjusted by setup, and returns its result, the engine and the
// collector that recorded it.
func pinnedRun(t *testing.T, name string, coPart bool, setup func(*exec.Engine)) (workloads.Result, *exec.Engine, *metrics.Collector) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	workloads.Shrink(w, 10)
	return runOn(t, w, coPart, setup)
}

// runOn is pinnedRun on the value w, which it does not shrink.
func runOn(t *testing.T, w workloads.Workload, coPart bool, setup func(*exec.Engine)) (workloads.Result, *exec.Engine, *metrics.Collector) {
	t.Helper()
	name := w.Name()
	ctx := rdd.NewContext(300)
	col := metrics.NewCollector(name, "test")
	eng := exec.New(cluster.PaperCluster(), cluster.DefaultCostParams(), ctx, col, coPart)
	dag.NewScheduler(ctx, eng)
	if setup != nil {
		setup(eng)
	}
	res, err := w.Run(ctx, w.DefaultInputBytes())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, eng, col
}

// simulatedEnd returns the simulated time pinnedRun's run ends at.
func simulatedEnd(t *testing.T, name string, coPart bool, setup func(*exec.Engine)) float64 {
	t.Helper()
	_, eng, _ := pinnedRun(t, name, coPart, setup)
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

// TestResultsAndTracesPinned pins what every built-in computes and what the
// engine records doing it, in both scheduling modes: the checksum's bits,
// and an FNV-64 of the run's full event log — every stage and task with
// its node, times, input, shuffle and record counts. A host-side change to
// how rows are produced or shuffled that moves one value, one byte of
// accounting or one task's record count fails here, naming the run.
func TestResultsAndTracesPinned(t *testing.T) {
	for _, run := range []struct {
		workload string
		coPart   bool
		checksum uint64
		trace    uint64
	}{
		{"kmeans", false, 0x40eb21946d1f4832, 0x627a87df65ab1567},
		{"pca", false, 0x4115766b2af97f92, 0xafded2286d365fd7},
		{"sql", false, 0x413eb80efdba4846, 0x6296dc990382ea3f},
		{"pagerank", false, 0x4078e90e69ad42c2, 0xea9ed8e09ccccbf5},
		{"kmeans", true, 0x40eb21946d1f4832, 0xf6db6b04e6250016},
		{"pca", true, 0x4115766b2af97f92, 0xf602aff73d573e90},
		{"sql", true, 0x413eb80efdba4846, 0x92c6a759579cbd50},
		{"pagerank", true, 0x4078e90e69ad42c2, 0x606dc9be84468b18},
	} {
		res, _, col := pinnedRun(t, run.workload, run.coPart, nil)
		h := fnv.New64a()
		if err := trace.FromCollector(col, true).Write(h); err != nil {
			t.Fatal(err)
		}
		if bits := math.Float64bits(res.Checksum); bits != run.checksum {
			t.Errorf("%s (co-partition-aware %v): checksum %v (%#x), want %v (%#x)",
				run.workload, run.coPart, res.Checksum, bits, math.Float64frombits(run.checksum), run.checksum)
		}
		if sum := h.Sum64(); sum != run.trace {
			t.Errorf("%s (co-partition-aware %v): event log hashes to %#x, want %#x", run.workload, run.coPart, sum, run.trace)
		}
	}
}

// TestReplayedRunsPinned runs each built-in value of the pins above three
// times, in both scheduling modes and under speculation and a node loss:
// the first run generates its sources, the second records their
// partitions and the third replays them. The first run is the one
// TestSimulatedTimePinned, TestResultsAndTracesPinned and
// TestBuiltinChecksumsPinned fix; the other two must end at the same
// simulated time, compute the same checksum and log the same events, bit
// for bit.
func TestReplayedRunsPinned(t *testing.T) {
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
	type bits struct{ now, checksum, trace uint64 }
	runBits := func(w workloads.Workload, coPart bool, setup func(*exec.Engine)) bits {
		res, eng, col := runOn(t, w, coPart, setup)
		h := fnv.New64a()
		if err := trace.FromCollector(col, true).Write(h); err != nil {
			t.Fatal(err)
		}
		return bits{math.Float64bits(eng.Now()), math.Float64bits(res.Checksum), h.Sum64()}
	}
	for _, run := range []struct {
		workload string
		coPart   bool
		setup    func(*exec.Engine)
	}{
		{"kmeans", false, nil}, {"pca", false, nil}, {"sql", false, nil}, {"pagerank", false, nil},
		{"kmeans", true, nil}, {"pca", true, nil}, {"sql", true, nil}, {"pagerank", true, nil},
		{"sql", false, speculate},
		{"kmeans", true, killC},
	} {
		w, err := workloads.ByName(run.workload)
		if err != nil {
			t.Fatal(err)
		}
		workloads.Shrink(w, 10)
		want := runBits(w, run.coPart, run.setup) // generated, as the pins above run it
		for _, phase := range []string{"recording", "replayed"} {
			if got := runBits(w, run.coPart, run.setup); got != want {
				t.Errorf("%s (co-partition-aware %v, adjusted %v), %s run: end, checksum and event log bits %#x, the generated run's %#x",
					run.workload, run.coPart, run.setup != nil, phase, got, want)
			}
		}
		recorded := 0
		workloads.RecordedForTest(w, func(string, int, int, []rdd.Row) { recorded++ })
		if recorded == 0 {
			t.Errorf("%s (co-partition-aware %v): three runs recorded no partition", run.workload, run.coPart)
		}
	}
}
