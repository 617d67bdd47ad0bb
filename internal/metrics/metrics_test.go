package metrics

import (
	"math"
	"slices"
	"testing"

	"chopper/internal/cluster"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func params() *cluster.CostParams { p := cluster.DefaultCostParams(); return &p }

func TestStageLifecycle(t *testing.T) {
	c := NewCollector("kmeans", "spark")
	c.BeginStage(0, "sig0", "scan", "hash", 4, 0)
	c.AddTask(0, "A", TaskMetric{TaskID: 0, Start: 0, End: 5, InputBytes: 100, Records: 10}, params())
	c.AddTask(0, "B", TaskMetric{TaskID: 1, Start: 0, End: 7, ShuffleWrite: 50}, params())
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
		c.AddTask(1, "", TaskMetric{}, params())
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
		c.AddTask(0, "w0", TaskMetric{TaskID: int32(i), Start: 0, End: 10}, params())
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
	c.AddTask(0, "", TaskMetric{Start: 0, End: 10, ShuffleReadLocal: 1500000}, p)
	c.AddTask(0, "", TaskMetric{TaskID: 1, Start: 0, End: 10, ShuffleReadRemote: 1500 * 100}, p)
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
	c.AddTask(0, "", TaskMetric{Start: 0, End: 4, InputBytes: 64 * 1024 * 40}, p)
	c.EndStage(0, 4)
	s := c.DiskSeries(4)
	if len(s.Values) != 1 || !almost(s.Values[0], 10) {
		t.Fatalf("disk series = %v, want 10 tx/s", s.Values)
	}
}

func TestTotalShuffle(t *testing.T) {
	c := NewCollector("w", "spark")
	c.BeginStage(0, "s", "n", "hash", 1, 0)
	c.AddTask(0, "", TaskMetric{ShuffleReadLocal: 5, ShuffleReadRemote: 7, ShuffleWrite: 11, Start: 0, End: 1}, params())
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
		c.AddTask(0, "w0", TaskMetric{TaskID: int32(i), Start: 0, End: 10}, params())
	}
	for i := 4; i < 6; i++ {
		c.AddTask(0, "w1", TaskMetric{TaskID: int32(i), Start: 0, End: 10}, params())
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

// The collector and series queries below serve only these tests.

// Duration reports the simulated task time.
func (t TaskMetric) Duration() float64 { return t.End - t.Start }

// TaskTimeStats reports min, max and mean task duration — the skew signal.
func (s *StageMetric) TaskTimeStats() (min, max, mean float64) {
	if len(s.Tasks) == 0 {
		return 0, 0, 0
	}
	min = math.Inf(1)
	for _, t := range s.Tasks {
		d := t.Duration()
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
		mean += d
	}
	mean /= float64(len(s.Tasks))
	return min, max, mean
}

// TotalShuffle reports run-wide shuffle read and write bytes.
func (c *Collector) TotalShuffle() (read, write int64) {
	for _, s := range c.Stages() {
		read += s.ShuffleRead
		write += s.ShuffleWrite
	}
	return read, write
}

// Times returns the sample timestamps.
func (s Series) Times() []float64 {
	out := make([]float64, len(s.Values))
	for i := range out {
		out[i] = float64(i) * s.Step
	}
	return out
}

// Mean returns the average of the series values.
func (s Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Max returns the maximum series value.
func (s Series) Max() float64 {
	m := 0.0
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// CPUSeriesByNode reports each worker's CPU utilization percent per bucket,
// exposing the load imbalance the cluster-average of Fig. 11 hides.
func (c *Collector) CPUSeriesByNode(topo *cluster.Topology, step float64) map[string]Series {
	h := c.horizon()
	out := map[string]Series{}
	for _, n := range topo.Workers() {
		vals := c.timeline(c.busyCores(n.Name)).BucketMean(h, step)
		for i := range vals {
			vals[i] = 100 * vals[i] / float64(n.Cores)
		}
		out[n.Name] = Series{Step: step, Values: vals}
	}
	return out
}

// LoadImbalance reports max/mean busy core-seconds across workers (1.0 is
// perfectly balanced).
func (c *Collector) LoadImbalance(topo *cluster.Topology) float64 {
	busy := map[string]float64{}
	for _, st := range c.Stages() {
		for _, tm := range st.Tasks {
			busy[c.TaskNode(&tm)] += tm.End - tm.Start
		}
	}
	max, sum := 0.0, 0.0
	for _, n := range topo.Workers() {
		l := busy[n.Name] / float64(n.Cores)
		max, sum = math.Max(max, l), sum+l
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(topo.Workers())))
}

// busyCores weighs each task as one busy core; node restricts the timeline
// to one worker ("" for the whole cluster).
func (c *Collector) busyCores(node string) func(*TaskMetric) float64 {
	c.mu.Lock()
	n := int32(slices.Index(c.nodes, node))
	c.mu.Unlock()
	return func(tm *TaskMetric) float64 {
		if node != "" && tm.node != n {
			return 0
		}
		return 1
	}
}
