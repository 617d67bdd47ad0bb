package exec

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"chopper/internal/cluster"
	"chopper/internal/dag"
	"chopper/internal/rdd"
	"chopper/internal/shuffle"
)

// The reference below is the placement pass as it stood before the compute
// pass resolved each task's preference: a ranked, deduplicated preference
// list per task, a struct per core, earliest as two scans, and the
// bottleneck peer looked up per call. The engine must place every task on
// the same node at the same start and end, bit for bit.

type refCore struct {
	node  *cluster.Node
	avail float64
}

// refStats counts how often a scenario reached the corners the reference
// exists to pin, so a test run can show it reached them.
type refStats struct {
	ties, pinned, deadFirst, speculated int
}

func refPinNode(workers []*cluster.Node, split int) string {
	total := 0
	for _, w := range workers {
		total += w.Cores
	}
	slot := (split * 7919) % total
	for _, w := range workers {
		if slot < w.Cores {
			return w.Name
		}
		slot -= w.Cores
	}
	return workers[0].Name
}

func refTopNodes(by []shuffle.NodeBytes) []shuffle.NodeBytes {
	if len(by) < 2 {
		return by
	}
	ranked := slices.Clone(by)
	slices.SortFunc(ranked, func(x, y shuffle.NodeBytes) int {
		if x.Bytes != y.Bytes {
			return cmp.Compare(y.Bytes, x.Bytes)
		}
		return strings.Compare(x.Node, y.Node)
	})
	return ranked
}

func refDedup(in []string) []string {
	out := in[:0]
	for _, s := range in {
		if !containsStr(out, s) {
			out = append(out, s)
		}
	}
	return out
}

func refPreferredNodes(e *Engine, t *task, st *refStats) []string {
	var prefs []string
	if e.CoPartitionAware {
		for _, p := range t.pending {
			if p.part != nil {
				prefs = append(prefs, refPinNode(e.aliveSnapshot(), t.split))
				st.pinned++
				break
			}
		}
	}
	for _, nb := range refTopNodes(t.cacheBy) {
		prefs = append(prefs, nb.Node)
	}
	if e.CoPartitionAware {
		for _, nb := range refTopNodes(t.shufBy) {
			prefs = append(prefs, nb.Node)
		}
	}
	prefs = append(prefs, t.srcNodes...)
	return refDedup(prefs)
}

func refBottleneckPeer(e *Engine, node *cluster.Node) *cluster.Node {
	best := node
	for _, w := range e.aliveSnapshot() {
		if w.Name == node.Name {
			continue
		}
		if best == node || w.LinkGbps < best.LinkGbps {
			best = w
		}
	}
	return best
}

func refPlacement(e *Engine, tasks []task, waveStart float64, st *refStats) {
	var cores []*refCore
	byNode := map[string][]*refCore{}
	maxCores := 0
	workers := e.aliveSnapshot()
	for _, w := range workers {
		if w.Cores > maxCores {
			maxCores = w.Cores
		}
	}
	for i := 0; i < maxCores; i++ {
		for _, w := range workers {
			if i >= w.Cores {
				continue
			}
			c := &refCore{node: w, avail: waveStart}
			cores = append(cores, c)
			byNode[w.Name] = append(byNode[w.Name], c)
		}
	}
	rr := 0
	earliest := func(cs []*refCore) *refCore {
		if len(cs) == 0 {
			return nil
		}
		min := math.Inf(1)
		at := 0
		for _, c := range cs {
			if c.avail < min {
				min, at = c.avail, 0
			}
			if c.avail == min {
				at++
			}
		}
		if at > 1 {
			st.ties++
		}
		for k := 0; k < len(cs); k++ {
			c := cs[(rr+k)%len(cs)]
			if c.avail == min {
				return c
			}
		}
		return cs[0]
	}
	for i := range tasks {
		t := &tasks[i]
		rr++
		dispatch := waveStart + float64(t.idx)*e.Params.DriverDispatchSec
		prefs := refPreferredNodes(e, t, st)
		chosen := earliest(cores)
		for k, p := range prefs {
			if pc := earliest(byNode[p]); pc != nil {
				if pc.avail <= chosen.avail+e.Params.LocalityWaitSec {
					chosen = pc
				}
				if k > 0 {
					st.deadFirst++
				}
				break
			}
		}
		t.node = chosen.node
		t.start = chosen.avail
		if dispatch > t.start {
			t.start = dispatch
		}
		t.end = t.start + e.taskDuration(t, chosen.node, refBottleneckPeer(e, chosen.node))*e.Params.Jitter(t.stage.ID, t.split)
		chosen.avail = t.end
	}
	if e.Speculate {
		refSpeculate(e, tasks, cores, st)
	}
}

func refSpeculate(e *Engine, tasks []task, cores []*refCore, st *refStats) {
	byStage := map[*dag.Stage][]*task{}
	for i := range tasks {
		byStage[tasks[i].stage] = append(byStage[tasks[i].stage], &tasks[i])
	}
	mult := e.Params.SpeculationMultiplier
	if mult <= 1 {
		mult = 1.5
	}
	quant := e.Params.SpeculationQuantile
	if quant <= 0 || quant >= 1 {
		quant = 0.75
	}
	stages := make([]*dag.Stage, 0, len(byStage))
	for s := range byStage {
		stages = append(stages, s)
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i].ID < stages[j].ID })
	for _, s := range stages {
		group := byStage[s]
		if len(group) < 8 {
			continue
		}
		durs := make([]float64, len(group))
		ends := make([]float64, len(group))
		for i, t := range group {
			durs[i] = t.end - t.start
			ends[i] = t.end
		}
		sort.Float64s(durs)
		sort.Float64s(ends)
		median := durs[len(durs)/2]
		detect := ends[int(quant*float64(len(ends)))]
		for _, t := range group {
			if t.end-t.start <= mult*median || t.end <= detect {
				continue
			}
			var best *refCore
			for _, c := range cores {
				if best == nil || c.avail < best.avail {
					best = c
				}
			}
			start := best.avail
			if detect > start {
				start = detect
			}
			dur := e.taskDuration(t, best.node, refBottleneckPeer(e, best.node)) * e.Params.Jitter(t.stage.ID, t.split+1000003)
			if start+dur < t.end {
				t.end = start + dur
				t.node = best.node
				best.avail = t.end
				st.speculated++
			}
		}
	}
}

// placementScenario draws a wave from seed: a random topology (a master
// node among the workers), some workers killed, quantized durations so
// availability ties are common, and preferences that name dead workers,
// the master and unknown nodes.
func placementScenario(seed int64) (e *Engine, tasks []task, waveStart float64) {
	rng := rand.New(rand.NewSource(seed))
	topo := &cluster.Topology{Nodes: []*cluster.Node{{Name: "M", Cores: 4, SpeedGHz: 2, MemGB: 64, LinkGbps: 10, IsMaster: true}}}
	for i := 0; i < 1+rng.Intn(6); i++ {
		topo.Nodes = append(topo.Nodes, &cluster.Node{
			Name:     fmt.Sprintf("N%d", i),
			Cores:    1 + rng.Intn(8),
			SpeedGHz: float64(1 + rng.Intn(2)),
			MemGB:    64,
			LinkGbps: []float64{1, 10}[rng.Intn(2)],
		})
	}
	params := cluster.DefaultCostParams()
	if rng.Intn(2) == 0 {
		params.TaskJitterFrac = 0
	}
	if rng.Intn(2) == 0 {
		params.DriverDispatchSec = 0
	}
	params.LocalityWaitSec = []float64{0, 0.5, 3, params.LocalityWaitSec}[rng.Intn(4)]
	e = New(topo, params, rdd.NewContext(4), nil, rng.Intn(2) == 0)
	e.Speculate = rng.Intn(2) == 0
	for _, w := range topo.Workers()[1:] {
		if rng.Intn(3) == 0 {
			if err := e.KillNode(w.Name); err != nil {
				panic(err)
			}
		}
	}

	names := []string{"M", "X"} // the master and a node outside the topology
	for _, w := range topo.Workers() {
		names = append(names, w.Name)
	}
	profile := func() []shuffle.NodeBytes {
		var by []shuffle.NodeBytes
		for _, n := range names {
			if rng.Intn(3) == 0 {
				by = append(by, shuffle.NodeBytes{Node: n, Bytes: int64(1+rng.Intn(3)) << 28})
			}
		}
		sort.Slice(by, func(i, j int) bool { return by[i].Node < by[j].Node })
		return by
	}
	stages := make([]*dag.Stage, 1+rng.Intn(3))
	for i := range stages {
		stages[i] = &dag.Stage{ID: 10 + i}
		for split := 0; split < 1+rng.Intn(40); split++ {
			t := task{stage: stages[i], split: split, idx: split}
			t.cost = float64(1+rng.Intn(2)) * 1e9
			if rng.Intn(8) == 0 {
				t.cost *= 20 // a straggler for speculation to rescue
			}
			if rng.Intn(2) == 0 {
				t.srcBytes = int64(1+rng.Intn(2)) << 28
				for k := rng.Intn(3); k > 0; k-- {
					t.srcNodes = append(t.srcNodes, names[rng.Intn(len(names))])
				}
			}
			if rng.Intn(2) == 0 {
				t.cacheBy = profile()
			}
			if rng.Intn(2) == 0 {
				t.shufBy = profile()
			}
			if rng.Intn(4) == 0 {
				var part rdd.Partitioner
				if rng.Intn(2) == 0 {
					part = rdd.NewHashPartitioner(4)
				}
				t.pending = []pendingCache{{part: part}}
			}
			if rng.Intn(2) == 0 {
				t.writeB = int64(rng.Intn(3)) << 27
			}
			tasks = append(tasks, t)
		}
	}
	return e, tasks, float64(rng.Intn(3)) * 10
}

// checkPlacement places one scenario's wave with the engine and with the
// reference and requires the same node, start and end for every task.
func checkPlacement(t testing.TB, seed int64, st *refStats) {
	e, tasks, start := placementScenario(seed)
	want := slices.Clone(tasks)
	refPlacement(e, want, start, st)
	workers := e.aliveSnapshot()
	for i := range tasks {
		tasks[i].pref = e.prefer(&tasks[i], workers)
	}
	e.placementPass(tasks, start, workers)
	for i := range tasks {
		got, want := &tasks[i], &want[i]
		if got.node.Name != want.node.Name ||
			math.Float64bits(got.start) != math.Float64bits(want.start) ||
			math.Float64bits(got.end) != math.Float64bits(want.end) {
			t.Fatalf("seed %d (co-partition-aware %v, speculate %v) task %d of stage %d: placed on %s over [%v, %v], reference %s over [%v, %v]",
				seed, e.CoPartitionAware, e.Speculate, got.split, got.stage.ID,
				got.node.Name, got.start, got.end, want.node.Name, want.start, want.end)
		}
	}
}

func TestPlacementMatchesReference(t *testing.T) {
	var st refStats
	for seed := int64(0); seed < 600; seed++ {
		checkPlacement(t, seed, &st)
	}
	t.Logf("reached: %+v", st)
	if st.ties == 0 || st.pinned == 0 || st.deadFirst == 0 || st.speculated == 0 {
		t.Fatalf("the scenarios missed a corner the reference pins: %+v", st)
	}
}

// FuzzPlacement explores scenarios; ci.sh runs it for 5 s.
func FuzzPlacement(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkPlacement(t, seed, new(refStats)) })
}
