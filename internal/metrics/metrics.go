// Package metrics is the statistics collector of the reproduction: it
// gathers per-task and per-stage execution records from the engine (the
// data CHOPPER's workload DB trains on) and reconstructs cluster-utilization
// timelines — CPU %, memory %, packets/s, disk transactions/s — matching the
// paper's Figs. 11-14.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"chopper/internal/cluster"
	"chopper/internal/simclock"
)

// TaskMetric records one executed task. A collector keeps one per
// simulated task, so it is 64 bytes on 64-bit targets: its stage is the
// StageMetric holding it, and its node an index into the collector's node
// names (Collector.TaskNode).
type TaskMetric struct {
	TaskID int32
	node   int32
	Start  float64
	End    float64

	InputBytes        int64 // logical bytes read from source or cache
	ShuffleReadLocal  int64
	ShuffleReadRemote int64
	ShuffleWrite      int64
	Records           int64
}

// StageMetric aggregates one executed stage.
type StageMetric struct {
	ID          int
	Signature   string
	Name        string
	Partitioner string
	NumTasks    int
	Start       float64
	End         float64

	InputBytes   int64
	ShuffleRead  int64 // local + remote, overhead included
	ShuffleWrite int64
	Tasks        []TaskMetric
}

// Duration reports the simulated stage time.
func (s *StageMetric) Duration() float64 { return s.End - s.Start }

// MaxShuffle reports max(read, write) — the paper's per-stage "shuffle data".
func (s *StageMetric) MaxShuffle() int64 {
	if s.ShuffleRead > s.ShuffleWrite {
		return s.ShuffleRead
	}
	return s.ShuffleWrite
}

// stepEvent is a change in a step-function series (e.g. cached bytes).
type stepEvent struct {
	t     float64
	delta float64
}

// Collector accumulates everything a run produces.
type Collector struct {
	mu sync.Mutex

	Workload string
	Mode     string // "spark" or "chopper"

	stages []*StageMetric
	open   map[int]*StageMetric
	// nodes are the task nodes, in first-seen order, in nodeBuf while they
	// fit (a collector per run then costs no allocation for them).
	nodes   []string
	nodeBuf [8]string
	// packetBytes and diskTxBytes are CostParams.PacketBytes and
	// DiskTransactionBytes as last given to AddTask: they size packets and
	// disk transactions.
	packetBytes, diskTxBytes float64

	memEvents []stepEvent // cached-bytes deltas

	end float64
}

// NewCollector creates an empty collector for one run.
func NewCollector(workload, mode string) *Collector {
	c := &Collector{Workload: workload, Mode: mode, open: map[int]*StageMetric{}}
	c.nodes = c.nodeBuf[:0]
	return c
}

// BeginStage opens a stage record.
func (c *Collector) BeginStage(id int, sig, name, partitioner string, numTasks int, start float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.open[id]; dup {
		panic(fmt.Sprintf("metrics: stage %d already open", id))
	}
	st := &StageMetric{
		ID: id, Signature: sig, Name: name, Partitioner: partitioner,
		NumTasks: numTasks, Start: start,
		Tasks: make([]TaskMetric, 0, numTasks),
	}
	c.open[id] = st
	c.stages = append(c.stages, st)
}

// EndStage closes a stage record.
func (c *Collector) EndStage(id int, end float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.open[id]
	if !ok {
		panic(fmt.Sprintf("metrics: ending unknown stage %d", id))
	}
	st.End = end
	delete(c.open, id)
	if end > c.end {
		c.end = end
	}
}

// AddTask records a task of stage stageID that ran on node into the open
// stage. The resource timelines are not fed here: they are queries over
// these records.
func (c *Collector) AddTask(stageID int, node string, tm TaskMetric, params *cluster.CostParams) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.open[stageID]
	if !ok {
		panic(fmt.Sprintf("metrics: task for unknown stage %d", stageID))
	}
	n := slices.Index(c.nodes, node) // a handful of nodes
	if n < 0 {
		n = len(c.nodes)
		c.nodes = append(c.nodes, node)
	}
	tm.node = int32(n)
	st.Tasks = append(st.Tasks, tm)
	st.InputBytes += tm.InputBytes
	st.ShuffleRead += tm.ShuffleReadLocal + tm.ShuffleReadRemote
	st.ShuffleWrite += tm.ShuffleWrite

	c.packetBytes, c.diskTxBytes = params.PacketBytes, params.DiskTransactionBytes
}

// TaskNode reports the node a recorded task ran on.
func (c *Collector) TaskNode(tm *TaskMetric) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[tm.node]
}

// timeline replays the recorded tasks into an interval recorder, each
// weighted by weight (tasks weighing nothing are left out). It walks the
// stages in execution order and each stage's tasks as recorded — the order
// AddTask ran in, so the bucket sums accumulate term for term as if the
// recorder had been fed task by task.
func (c *Collector) timeline(weight func(tm *TaskMetric) float64) *simclock.Recorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec := &simclock.Recorder{}
	for _, st := range c.stages {
		for i := range st.Tasks {
			tm := &st.Tasks[i]
			if w := weight(tm); w > 0 {
				rec.Add(tm.Start, tm.End, w)
			}
		}
	}
	return rec
}

// MemDelta records a change in resident cached bytes at time t (positive on
// cache put, negative on eviction).
func (c *Collector) MemDelta(t, deltaBytes float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.memEvents = append(c.memEvents, stepEvent{t: t, delta: deltaBytes})
	if t > c.end {
		c.end = t
	}
}

// Stages returns the recorded stages in execution order.
func (c *Collector) Stages() []*StageMetric {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*StageMetric, len(c.stages))
	copy(out, c.stages)
	return out
}

// StageByID finds a stage record.
func (c *Collector) StageByID(id int) *StageMetric {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.stages {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// TotalTime reports the simulated end time of the run.
func (c *Collector) TotalTime() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.end
}

// Series is a sampled utilization timeline.
type Series struct {
	Step   float64
	Values []float64
}

func (c *Collector) horizon() float64 {
	h := c.TotalTime()
	if h <= 0 {
		h = 1
	}
	return h
}

// CPUSeries reports cluster-average CPU utilization percent per step bucket
// (busy worker cores over total worker cores), cf. paper Fig. 11.
func (c *Collector) CPUSeries(topo *cluster.Topology, step float64) Series {
	total := float64(topo.TotalWorkerCores())
	vals := c.timeline(func(*TaskMetric) float64 { return 1 }).BucketMean(c.horizon(), step)
	for i := range vals {
		vals[i] = 100 * vals[i] / total
	}
	return Series{Step: step, Values: vals}
}

// MemSeries reports cluster-average memory utilization percent per bucket:
// a base executor footprint plus cached bytes plus active task working sets,
// over total worker memory, cf. paper Fig. 12.
func (c *Collector) MemSeries(topo *cluster.Topology, step float64, baseFraction float64) Series {
	var totalMem float64
	for _, n := range topo.Workers() {
		totalMem += n.MemGB * 1e9
	}
	h := c.horizon()
	// Working set: what each task holds while it runs.
	vals := c.timeline(func(tm *TaskMetric) float64 {
		return float64(tm.InputBytes + tm.ShuffleReadLocal + tm.ShuffleReadRemote)
	}).BucketMean(h, step)
	cached := c.cachedSeries(h, step)
	for i := range vals {
		used := vals[i] + cached[i] + baseFraction*totalMem
		vals[i] = 100 * used / totalMem
		if vals[i] > 100 {
			vals[i] = 100
		}
	}
	return Series{Step: step, Values: vals}
}

// cachedSeries integrates mem events into a per-bucket mean byte level.
func (c *Collector) cachedSeries(horizon, step float64) []float64 {
	c.mu.Lock()
	events := make([]stepEvent, len(c.memEvents))
	copy(events, c.memEvents)
	c.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].t < events[j].t })
	n := int(math.Ceil(horizon / step))
	out := make([]float64, n)
	level := 0.0
	idx := 0
	for b := 0; b < n; b++ {
		lo, hi := float64(b)*step, float64(b+1)*step
		t := lo
		area := 0.0
		for idx < len(events) && events[idx].t < hi {
			ev := events[idx]
			if ev.t > t {
				area += level * (ev.t - t)
				t = ev.t
			}
			level += ev.delta
			idx++
		}
		area += level * (hi - t)
		out[b] = area / step
	}
	return out
}

// NetSeries reports total packets (tx+rx) per second per bucket, Fig. 13.
func (c *Collector) NetSeries(step float64) Series {
	// Remote fetches cross the network twice in interface counters
	// (transmit on the source, receive on the reader).
	vals := c.timeline(func(tm *TaskMetric) float64 {
		return 2 * float64(tm.ShuffleReadRemote) / c.packetBytes
	}).BucketSum(c.horizon(), step)
	for i := range vals {
		vals[i] /= step
	}
	return Series{Step: step, Values: vals}
}

// DiskSeries reports disk transactions per second per bucket, Fig. 14.
func (c *Collector) DiskSeries(step float64) Series {
	vals := c.timeline(func(tm *TaskMetric) float64 {
		diskBytes := float64(tm.InputBytes+tm.ShuffleWrite) + float64(tm.ShuffleReadLocal)
		return diskBytes / c.diskTxBytes
	}).BucketSum(c.horizon(), step)
	for i := range vals {
		vals[i] /= step
	}
	return Series{Step: step, Values: vals}
}
