package metrics

import (
	"math"
	"testing"

	"chopper/internal/cluster"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func params() *cluster.CostParams { p := cluster.DefaultCostParams(); return &p }

func TestStageLifecycle(t *testing.T) {
	c := NewCollector("kmeans", "spark")
	c.BeginStage(0, "sig0", "scan", "hash", 4, 0)
	c.AddTask(TaskMetric{StageID: 0, TaskID: 0, Node: "A", Start: 0, End: 5, InputBytes: 100, Records: 10}, params())
	c.AddTask(TaskMetric{StageID: 0, TaskID: 1, Node: "B", Start: 0, End: 7, ShuffleWrite: 50}, params())
	c.EndStage(0, 7)

	stages := c.Stages()
	if len(stages) != 1 {
		t.Fatalf("stage count = %d", len(stages))
	}
	st := stages[0]
	if st.Duration() != 7 || st.InputBytes != 100 || st.ShuffleWrite != 50 {
		t.Fatalf("stage aggregates wrong: %+v", st)
	}
	if st.MaxShuffle() != 50 {
		t.Fatalf("MaxShuffle = %d", st.MaxShuffle())
	}
	if got := c.TotalTime(); got != 7 {
		t.Fatalf("TotalTime = %v", got)
	}
	if c.StageByID(0) != st || c.StageByID(9) != nil {
		t.Fatalf("StageByID lookup broken")
	}
}

func TestStageMisusePanics(t *testing.T) {
	c := NewCollector("w", "spark")
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	c.BeginStage(1, "s", "n", "hash", 1, 0)
	mustPanic("duplicate begin", func() { c.BeginStage(1, "s", "n", "hash", 1, 0) })
	mustPanic("unknown end", func() { c.EndStage(5, 1) })
	mustPanic("task for closed stage", func() {
		c.EndStage(1, 1)
		c.AddTask(TaskMetric{StageID: 1}, params())
	})
}

func TestTaskTimeStats(t *testing.T) {
	st := &StageMetric{}
	if mn, mx, me := st.TaskTimeStats(); mn != 0 || mx != 0 || me != 0 {
		t.Fatalf("empty stats should be zero")
	}
	st.Tasks = []TaskMetric{
		{Start: 0, End: 2}, {Start: 0, End: 4}, {Start: 1, End: 7},
	}
	mn, mx, me := st.TaskTimeStats()
	if !almost(mn, 2) || !almost(mx, 6) || !almost(me, 4) {
		t.Fatalf("stats = %v %v %v", mn, mx, me)
	}
}

func TestCPUSeries(t *testing.T) {
	topo := cluster.UniformCluster(2, 4, 2.0) // 8 worker cores
	c := NewCollector("w", "spark")
	c.BeginStage(0, "s", "n", "hash", 2, 0)
	// 4 cores busy for the whole 10s horizon => 50% utilization.
	for i := 0; i < 4; i++ {
		c.AddTask(TaskMetric{StageID: 0, TaskID: i, Node: "w0", Start: 0, End: 10}, params())
	}
	c.EndStage(0, 10)
	s := c.CPUSeries(topo, 5)
	if len(s.Values) != 2 || !almost(s.Values[0], 50) || !almost(s.Values[1], 50) {
		t.Fatalf("cpu series = %v", s.Values)
	}
	if !almost(s.Mean(), 50) || !almost(s.Max(), 50) {
		t.Fatalf("series stats wrong: mean=%v max=%v", s.Mean(), s.Max())
	}
	ts := s.Times()
	if len(ts) != 2 || ts[1] != 5 {
		t.Fatalf("times wrong: %v", ts)
	}
}

func TestMemSeriesIncludesCacheAndBase(t *testing.T) {
	topo := cluster.UniformCluster(1, 4, 2.0) // 64 GB total
	c := NewCollector("w", "spark")
	c.BeginStage(0, "s", "n", "hash", 1, 0)
	c.EndStage(0, 10)
	c.MemDelta(0, 6.4e9) // cache 10% of memory for the whole run
	s := c.MemSeries(topo, 10, 0.1)
	if len(s.Values) != 1 {
		t.Fatalf("series length %d", len(s.Values))
	}
	// 10% base + 10% cached = 20%.
	if !almost(s.Values[0], 20) {
		t.Fatalf("mem series = %v, want 20", s.Values)
	}
}

func TestMemSeriesEvictionDrops(t *testing.T) {
	topo := cluster.UniformCluster(1, 4, 2.0)
	c := NewCollector("w", "spark")
	c.BeginStage(0, "s", "n", "hash", 1, 0)
	c.EndStage(0, 10)
	c.MemDelta(0, 6.4e9)
	c.MemDelta(5, -6.4e9) // evicted halfway
	s := c.MemSeries(topo, 10, 0)
	if !almost(s.Values[0], 5) {
		t.Fatalf("mean cached fraction should be 5%%: %v", s.Values)
	}
}

func TestMemSeriesClampsAt100(t *testing.T) {
	topo := cluster.UniformCluster(1, 4, 2.0)
	c := NewCollector("w", "spark")
	c.BeginStage(0, "s", "n", "hash", 1, 0)
	c.EndStage(0, 1)
	c.MemDelta(0, 1e15)
	s := c.MemSeries(topo, 1, 0)
	if s.Values[0] != 100 {
		t.Fatalf("memory should clamp at 100%%: %v", s.Values)
	}
}

func TestNetSeriesCountsRemoteOnly(t *testing.T) {
	p := params()
	c := NewCollector("w", "spark")
	c.BeginStage(0, "s", "n", "hash", 1, 0)
	c.AddTask(TaskMetric{StageID: 0, Start: 0, End: 10, ShuffleReadLocal: 1500000}, p)
	c.AddTask(TaskMetric{StageID: 0, TaskID: 1, Start: 0, End: 10, ShuffleReadRemote: 1500 * 100}, p)
	c.EndStage(0, 10)
	s := c.NetSeries(10)
	// 100 packets remote, doubled for tx+rx, over 10s = 20 packets/s.
	if len(s.Values) != 1 || !almost(s.Values[0], 20) {
		t.Fatalf("net series = %v", s.Values)
	}
}

func TestDiskSeries(t *testing.T) {
	p := params()
	c := NewCollector("w", "spark")
	c.BeginStage(0, "s", "n", "hash", 1, 0)
	c.AddTask(TaskMetric{StageID: 0, Start: 0, End: 4, InputBytes: 64 * 1024 * 40}, p)
	c.EndStage(0, 4)
	s := c.DiskSeries(4)
	if len(s.Values) != 1 || !almost(s.Values[0], 10) {
		t.Fatalf("disk series = %v, want 10 tx/s", s.Values)
	}
}

func TestTotalShuffle(t *testing.T) {
	c := NewCollector("w", "spark")
	c.BeginStage(0, "s", "n", "hash", 1, 0)
	c.AddTask(TaskMetric{StageID: 0, ShuffleReadLocal: 5, ShuffleReadRemote: 7, ShuffleWrite: 11, Start: 0, End: 1}, params())
	c.EndStage(0, 1)
	r, w := c.TotalShuffle()
	if r != 12 || w != 11 {
		t.Fatalf("total shuffle = %d/%d", r, w)
	}
}

func TestEmptyCollectorSeries(t *testing.T) {
	c := NewCollector("w", "spark")
	topo := cluster.PaperCluster()
	if s := c.CPUSeries(topo, 20); len(s.Values) == 0 {
		t.Fatalf("empty collector should still produce a series over the 1s fallback horizon")
	}
	if s := c.NetSeries(20); s.Mean() != 0 {
		t.Fatalf("no traffic expected")
	}
}

func TestCPUSeriesByNode(t *testing.T) {
	topo := cluster.UniformCluster(2, 4, 2.0)
	c := NewCollector("w", "spark")
	c.BeginStage(0, "s", "n", "hash", 3, 0)
	// w0: 4 cores busy, w1: 2 cores busy over [0,10).
	for i := 0; i < 4; i++ {
		c.AddTask(TaskMetric{StageID: 0, TaskID: i, Node: "w0", Start: 0, End: 10}, params())
	}
	for i := 4; i < 6; i++ {
		c.AddTask(TaskMetric{StageID: 0, TaskID: i, Node: "w1", Start: 0, End: 10}, params())
	}
	c.EndStage(0, 10)
	byNode := c.CPUSeriesByNode(topo, 10)
	if !almost(byNode["w0"].Values[0], 100) || !almost(byNode["w1"].Values[0], 50) {
		t.Fatalf("per-node series wrong: %+v", byNode)
	}
	// Imbalance: w0 busy 10s/core-normalized vs w1 5s -> max/mean = 10/7.5.
	if got := c.LoadImbalance(topo); !almost(got, 10.0/7.5) {
		t.Fatalf("imbalance = %v", got)
	}
}

func TestLoadImbalanceEmpty(t *testing.T) {
	c := NewCollector("w", "spark")
	if got := c.LoadImbalance(cluster.PaperCluster()); got != 1 {
		t.Fatalf("empty imbalance should be 1: %v", got)
	}
}
