package exec

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"chopper/internal/cluster"
	"chopper/internal/dag"
	"chopper/internal/metrics"
	"chopper/internal/rdd"
	"chopper/internal/shuffle"
	"chopper/internal/storage"
)

func testEngine() *Engine {
	ctx := rdd.NewContext(8)
	col := metrics.NewCollector("t", "t")
	return New(cluster.PaperCluster(), cluster.DefaultCostParams(), ctx, col, true)
}

func TestPinNodeDeterministicAndBalanced(t *testing.T) {
	workers := testEngine().aliveSnapshot()
	counts := map[string]int{}
	for split := 0; split < 1120; split++ {
		n1 := pinNode(split, workers)
		n2 := pinNode(split, workers)
		if n1 != n2 {
			t.Fatalf("pinNode not deterministic for split %d", split)
		}
		counts[workers[n1].Name]++
	}
	// Core-weighted: 32-core nodes get ~4x the splits of 8-core nodes.
	if counts["A"] < 2*counts["D"] {
		t.Fatalf("pinning should weight by cores: %v", counts)
	}
	for _, w := range []string{"A", "B", "C", "D", "E"} {
		if counts[w] == 0 {
			t.Fatalf("node %s never pinned: %v", w, counts)
		}
	}
}

func TestPinNodeAfterFailure(t *testing.T) {
	e := testEngine()
	if err := e.KillNode("A"); err != nil {
		t.Fatal(err)
	}
	workers := e.aliveSnapshot()
	for split := 0; split < 200; split++ {
		if workers[pinNode(split, workers)].Name == "A" {
			t.Fatalf("dead node must not be pinned")
		}
	}
}

func TestBottleneckPeerPrefersSlowLink(t *testing.T) {
	e := testEngine()
	fast := e.Topo.Node("A")
	peer := bottleneckPeer(fast, e.aliveSnapshot())
	if peer.LinkGbps != 1 {
		t.Fatalf("bottleneck peer should be a 1 Gbps node, got %+v", peer)
	}
	if peer.Name == fast.Name {
		t.Fatalf("peer must differ from the node itself")
	}
}

func TestTaskDurationComponents(t *testing.T) {
	e := testEngine()
	nodeA := e.Topo.Node("A")
	peer := bottleneckPeer(nodeA, e.aliveSnapshot())
	duration := func(t *task) float64 { return e.taskDuration(t, nodeA, peer) }
	base := &task{cost: 1e9} // 1 logical GB of factor-1 compute
	d0 := duration(base)
	wantCompute := e.Params.ComputeSec(1e9, 1, nodeA)
	if math.Abs(d0-(e.Params.TaskFixedSec+wantCompute)) > 1e-9 {
		t.Fatalf("pure-compute duration wrong: %v", d0)
	}

	// Local source read adds disk time; remote adds network too.
	local := &task{srcBytes: 1e9, srcNodes: []string{"A"}}
	remote := &task{srcBytes: 1e9, srcNodes: []string{"B"}}
	dl, dr := duration(local), duration(remote)
	if dr <= dl {
		t.Fatalf("remote source read must cost more: %v vs %v", dr, dl)
	}

	// Cached reads: local memory beats remote network.
	cl := &task{cacheBy: []shuffle.NodeBytes{{Node: "A", Bytes: 1e9}}}
	cr := &task{cacheBy: []shuffle.NodeBytes{{Node: "B", Bytes: 1e9}}}
	if duration(cr) <= duration(cl) {
		t.Fatalf("remote cache read must cost more")
	}

	// Shuffle reads: local disk beats remote network over 1 Gbps.
	sl := &task{shufBy: []shuffle.NodeBytes{{Node: "A", Bytes: 1e9}}}
	sr := &task{shufBy: []shuffle.NodeBytes{{Node: "D", Bytes: 1e9}}}
	if duration(sr) <= duration(sl) {
		t.Fatalf("remote shuffle read must cost more")
	}

	// Memory pressure multiplies compute.
	pressured := &task{cost: 1e9, srcBytes: int64(4 * e.Params.MemPressureBytes), srcNodes: []string{"A"}}
	dp := duration(pressured)
	unpressured := &task{cost: 1e9, srcBytes: 1, srcNodes: []string{"A"}}
	du := duration(unpressured)
	if dp <= du {
		t.Fatalf("memory pressure should slow the task: %v vs %v", dp, du)
	}

	// Shuffle writes add disk-write time.
	writer := &task{writeB: 1e9}
	if duration(writer) <= e.Params.TaskFixedSec {
		t.Fatalf("shuffle write should cost time")
	}
}

func TestKillNodeGuards(t *testing.T) {
	e := testEngine()
	for _, n := range []string{"A", "B", "C", "D"} {
		if err := e.KillNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.KillNode("E"); err == nil {
		t.Fatalf("killing the last worker must fail")
	}
	if err := e.KillNode("nope"); err == nil {
		t.Fatalf("unknown worker must fail")
	}
	if got := e.AliveWorkers(); len(got) != 1 || got[0] != "E" {
		t.Fatalf("alive workers wrong: %v", got)
	}
}

func TestEnsureSourceRegistersOnce(t *testing.T) {
	e := testEngine()
	r := e.Ctx.Generate("g", 4, 1<<30, func(split, total int) []rdd.Row { return nil })
	f1 := e.ensureSource(r)
	f2 := e.ensureSource(r)
	if f1 != f2 {
		t.Fatalf("source should register once: %q vs %q", f1, f2)
	}
	if e.Blocks.File(f1) == nil {
		t.Fatalf("block layout missing")
	}
	if b, _ := e.Blocks.Split(f1, 0, 4); b <= 0 {
		t.Fatalf("split bytes should be positive")
	}
}

func TestAcctMemoization(t *testing.T) {
	e := testEngine()
	calls := 0
	src := e.Ctx.Generate("memo", 2, 1000, func(split, total int) []rdd.Row {
		calls++
		return []rdd.Row{rdd.Pair{K: split, V: 1.0}}
	})
	// Within one task accountant, re-reading the same partition (as a
	// diamond dependency would) must not recompute it.
	a := new(acct)
	if _, _, err := e.materialize(src, 0, a); err != nil {
		t.Fatal(err)
	}
	first := calls
	if _, _, err := e.materialize(src, 0, a); err != nil {
		t.Fatal(err)
	}
	if calls != first {
		t.Fatalf("memo should prevent recomputation within a task: %d -> %d", first, calls)
	}
	// A fresh accountant recomputes (uncached RDD).
	if _, _, err := e.materialize(src, 0, new(acct)); err != nil {
		t.Fatal(err)
	}
	if calls == first {
		t.Fatalf("fresh task should recompute an uncached partition")
	}

	// So does the next task on a worker's reused scratch, and once a task
	// is done the scratch references none of its rows: memo entries and
	// input windows are cleared up to their capacity.
	st := &dag.Stage{Final: src.Map(func(r rdd.Row) rdd.Row { return r })}
	workers := e.aliveSnapshot()
	scratch := new(acct)
	for i := 0; i < 2; i++ {
		before := calls
		tk := task{stage: st}
		if err := e.computeTask(&tk, workers, scratch); err != nil || len(tk.rows) != 1 {
			t.Fatalf("task %d: %d rows, %v", i, len(tk.rows), err)
		}
		if calls != before+1 {
			t.Fatalf("task %d on a reused scratch computed the source %d times, want once", i, calls-before)
		}
		if cap(scratch.memo) == 0 || cap(scratch.ins) == 0 {
			t.Fatalf("the scratch kept no capacity for the next task")
		}
		for _, m := range scratch.memo[:cap(scratch.memo)] {
			if m.rows != nil {
				t.Fatalf("task %d left memoised rows %v in the worker scratch", i, m.rows)
			}
		}
		for _, in := range scratch.ins[:cap(scratch.ins)] {
			if in != nil {
				t.Fatalf("task %d left input rows %v in the worker scratch", i, in)
			}
		}
	}
}

// TestMergedProfileLeavesIndexAlone: a reduce task adopts its shuffle
// index's locality row read-only. A task reading a cogroup over two
// shuffles plus a cached input merges three profiles; it must hold their
// sums, and both shuffles must report afterwards exactly what they
// reported before it ran.
func TestMergedProfileLeavesIndexAlone(t *testing.T) {
	const parts = 6
	e := testEngine()
	p := rdd.NewHashPartitioner(parts)
	cached := e.Ctx.Generate("cached", parts, 1<<20, nil).Cache()
	cached.Part = p
	for s := 0; s < parts; s++ {
		e.Cache.Put(storage.CacheKey{RDD: cached.ID, Split: s, Of: parts}, "C", 1000, []rdd.Row{rdd.Pair{K: s, V: 1.0}})
	}
	source := func(name string, rows int) *rdd.RDD {
		return e.Ctx.Generate(name, 8, 1<<20, func(split, total int) []rdd.Row {
			var out []rdd.Row
			for k := split; k < rows; k += total {
				out = append(out, rdd.Pair{K: k, V: 1.0})
			}
			return out
		})
	}
	cg := source("left", 200).CoGroup(source("right", 100), p)
	final := cg.CoGroup(cached, p)
	var mapStages []*dag.Stage
	for i, d := range cg.Deps {
		dep := d.(*rdd.ShuffleDep)
		dep.ShuffleID = i + 1
		mapStages = append(mapStages, &dag.Stage{ID: i, Final: dep.P, OutDep: dep})
	}
	if err := e.RunWave(mapStages); err != nil {
		t.Fatal(err)
	}
	profiles := func() [][]shuffle.NodeBytes {
		var out [][]shuffle.NodeBytes
		for _, id := range []int{1, 2} {
			for r := 0; r < parts; r++ {
				out = append(out, e.Shuffle.ReduceNodeBytes(id, r))
			}
		}
		return out
	}
	before := profiles()

	workers := e.aliveSnapshot()
	scratch := new(acct)
	for r := 0; r < parts; r++ {
		tk := task{stage: &dag.Stage{ID: 2, Final: final}, split: r}
		if err := e.computeTask(&tk, workers, scratch); err != nil {
			t.Fatal(err)
		}
		sums := map[string]int64{}
		for _, nb := range append(slices.Clone(before[r]), before[parts+r]...) {
			sums[nb.Node] += nb.Bytes
		}
		var want []shuffle.NodeBytes
		for node, b := range sums {
			want = append(want, shuffle.NodeBytes{Node: node, Bytes: b})
		}
		slices.SortFunc(want, func(x, y shuffle.NodeBytes) int { return strings.Compare(x.Node, y.Node) })
		if !reflect.DeepEqual(tk.shufBy, want) {
			t.Fatalf("reduce %d: merged shuffle profile %v, want %v", r, tk.shufBy, want)
		}
		if want := []shuffle.NodeBytes{{Node: "C", Bytes: 1000}}; !reflect.DeepEqual(tk.cacheBy, want) {
			t.Fatalf("reduce %d: cached-input profile %v, want %v", r, tk.cacheBy, want)
		}
	}
	if after := profiles(); !reflect.DeepEqual(after, before) {
		t.Fatalf("reduce tasks rewrote the shuffle index:\nbefore %v\n after %v", before, after)
	}
}
