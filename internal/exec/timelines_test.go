package exec_test

import (
	"math"
	"testing"

	"chopper/internal/metrics"
	"chopper/internal/rdd"
	"chopper/internal/simclock"
)

// TestDerivedTimelinesMatchEagerRecorders pins the collector's resource
// timelines, which are queries over the task records, to the bits of the
// recorders they replaced: a test-local oracle feeds simclock.Recorders
// task by task, in the order the engine's commit pass calls AddTask (the
// wave's stages one after the other, each stage's tasks by split), with the
// weights AddTask used to compute. The run is CoPartitionAware, so the two
// map stages of the join share a wave and their tasks overlap in time.
func TestDerivedTimelinesMatchEagerRecorders(t *testing.T) {
	h := newHarness(true, nil)
	add := func(a, b any) any { return a.(float64) + b.(float64) }
	// Sources large enough (in logical bytes) to span many blocks, so the
	// tasks spread over the workers and the reduce side fetches remotely.
	source := func(name string, rows int) *rdd.RDD {
		return h.ctx.Generate(name, 24, 20e9, func(split, total int) []rdd.Row {
			var out []rdd.Row
			for i := split; i < rows; i += total {
				out = append(out, rdd.Pair{K: i % 97, V: 1.0})
			}
			return out
		})
	}
	left := source("left", 4000).ReduceByKey(add, 40)
	right := source("right", 1500).MapValues(func(v any) any { return v.(float64) * 2 })
	for job := 0; job < 2; job++ {
		if _, err := left.Join(right, nil).Count(); err != nil {
			t.Fatal(err)
		}
	}

	topo, p := h.eng.Topo, h.eng.Params
	var cpu, work, net, disk simclock.Recorder
	nodes := map[string]bool{}
	netN, diskN := 0, 0
	stages, overlapped := h.col.Stages(), false
	for i, st := range stages {
		overlapped = overlapped || i > 0 && st.Start == stages[i-1].Start
		for _, tm := range st.Tasks {
			cpu.Add(tm.Start, tm.End, 1)
			nodes[h.col.TaskNode(&tm)] = true
			if ws := float64(tm.InputBytes + tm.ShuffleReadLocal + tm.ShuffleReadRemote); ws > 0 {
				work.Add(tm.Start, tm.End, ws)
			}
			if tm.ShuffleReadRemote > 0 {
				net.Add(tm.Start, tm.End, 2*float64(tm.ShuffleReadRemote)/p.PacketBytes)
				netN++
			}
			if diskBytes := float64(tm.InputBytes+tm.ShuffleWrite) + float64(tm.ShuffleReadLocal); diskBytes > 0 {
				disk.Add(tm.Start, tm.End, diskBytes/p.DiskTransactionBytes)
				diskN++
			}
		}
	}
	if len(stages) < 6 || !overlapped || netN == 0 || diskN == 0 || len(nodes) < 2 {
		t.Fatalf("run too plain to prove anything: %d stages, overlapped=%v, %d net and %d disk intervals, %d nodes",
			len(stages), overlapped, netN, diskN, len(nodes))
	}

	same := func(name string, got metrics.Series, want []float64) {
		t.Helper()
		if len(got.Values) != len(want) || len(want) == 0 {
			t.Fatalf("%s: %d buckets, want %d", name, len(got.Values), len(want))
		}
		for i := range want {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s bucket %d: %v, want %v bit for bit", name, i, got.Values[i], want[i])
			}
		}
	}
	scaled := func(vals []float64, f func(float64) float64) []float64 {
		for i := range vals {
			vals[i] = f(vals[i])
		}
		return vals
	}
	horizon := h.col.TotalTime()
	var totalMem float64
	for _, n := range topo.Workers() {
		totalMem += n.MemGB * 1e9
	}
	for _, step := range []float64{horizon / 7, 0.05, 20} {
		cores := float64(topo.TotalWorkerCores())
		same("cpu", h.col.CPUSeries(topo, step),
			scaled(cpu.BucketMean(horizon, step), func(v float64) float64 { return 100 * v / cores }))
		// No partition is cached in this run, so the cached level is zero.
		same("mem", h.col.MemSeries(topo, step, 0.1),
			scaled(work.BucketMean(horizon, step), func(v float64) float64 {
				return math.Min(100, 100*(v+0+0.1*totalMem)/totalMem)
			}))
		same("net", h.col.NetSeries(step),
			scaled(net.BucketSum(horizon, step), func(v float64) float64 { return v / step }))
		same("disk", h.col.DiskSeries(step),
			scaled(disk.BucketSum(horizon, step), func(v float64) float64 { return v / step }))
	}
}
