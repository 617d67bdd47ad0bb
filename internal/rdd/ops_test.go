package rdd

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func testCtx(parallelism int) *Context {
	c := NewContext(parallelism)
	c.SetRunner(NewLocalRunner())
	return c
}

func intRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func collectInts(t *testing.T, r *RDD) []int {
	t.Helper()
	rows, err := r.Collect()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(rows))
	for i, row := range rows {
		out[i] = row.(int)
	}
	sort.Ints(out)
	return out
}

func pairsToMap(t *testing.T, r *RDD) map[any]any {
	t.Helper()
	m, err := r.CollectPairsMap()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParallelizeAndCollect(t *testing.T) {
	ctx := testCtx(4)
	r := ctx.Parallelize(intRows(10), 4)
	got := collectInts(t, r)
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("collect = %v", got)
	}
	if r.NumParts != 4 || !r.Fixed {
		t.Fatalf("parallelize partitioning wrong: %d fixed=%v", r.NumParts, r.Fixed)
	}
}

func TestParallelizeEdgeCases(t *testing.T) {
	ctx := testCtx(4)
	empty := ctx.Parallelize(nil, 0)
	if n, err := empty.Count(); err != nil || n != 0 {
		t.Fatalf("empty count = %d err=%v", n, err)
	}
	tiny := ctx.Parallelize(intRows(2), 8) // fewer rows than partitions
	if tiny.NumParts != 2 {
		t.Fatalf("partitions should clamp to row count, got %d", tiny.NumParts)
	}
}

func TestGenerateResplittable(t *testing.T) {
	ctx := testCtx(4)
	gen := func(split, total int) []Row {
		// Rows hashed to splits so the dataset is split-count independent.
		var rows []Row
		for i := 0; i < 100; i++ {
			if int(KeyHash(i)%uint64(total)) == split {
				rows = append(rows, i)
			}
		}
		return rows
	}
	r := ctx.Generate("points", 0, 1e6, gen)
	if r.Fixed {
		t.Fatalf("default-parallelism source should be tunable")
	}
	before := collectInts(t, r)
	r.NumParts = 7 // simulate the configurator retuning the source
	after := collectInts(t, r)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("dataset must be independent of split count")
	}
}

func TestMapFilterFlatMap(t *testing.T) {
	ctx := testCtx(3)
	r := ctx.Parallelize(intRows(10), 3)
	doubled := collectInts(t, r.Map(func(x Row) Row { return x.(int) * 2 }))
	if doubled[0] != 0 || doubled[9] != 18 {
		t.Fatalf("map wrong: %v", doubled)
	}
	evens := collectInts(t, r.Filter(func(x Row) bool { return x.(int)%2 == 0 }))
	if !reflect.DeepEqual(evens, []int{0, 2, 4, 6, 8}) {
		t.Fatalf("filter wrong: %v", evens)
	}
	fm := collectInts(t, r.FlatMap(func(x Row) []Row { return []Row{x, x} }))
	if len(fm) != 20 {
		t.Fatalf("flatMap wrong length: %d", len(fm))
	}
}

// TestFlatMapConcatenatesOnce covers what building the output in one
// exact-size slice could change: nil and empty results among the rows,
// large fan-out, row order, nil for a partition without output, and the
// inputs (f's own slices) left as they were.
func TestFlatMapConcatenatesOnce(t *testing.T) {
	ctx := testCtx(2)
	r := ctx.Parallelize(intRows(8), 2)
	kept := map[int][]Row{}
	fm := r.FlatMap(func(x Row) []Row {
		switch n := x.(int); n % 4 {
		case 0:
			return nil
		case 1:
			return []Row{}
		case 2:
			out := make([]Row, 1000, 2000) // spare capacity must not be written
			for i := range out {
				out[i] = n*10000 + i
			}
			kept[n] = out
			return out
		default:
			return []Row{n}
		}
	})
	got, err := fm.Collect() // unsorted: partitions, then rows, in order
	if err != nil {
		t.Fatal(err)
	}
	var want []Row
	for n := 0; n < 8; n++ {
		switch n % 4 {
		case 2:
			for i := 0; i < 1000; i++ {
				want = append(want, n*10000+i)
			}
		case 3:
			want = append(want, n)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flatMap: %d rows, want %d in input order (first %v)", len(got), len(want), got[:min(5, len(got))])
	}
	for n, out := range kept {
		if len(out) != 1000 || out[0] != n*10000 || out[999] != n*10000+999 || out[:1001][1000] != nil {
			t.Fatalf("flatMap changed the slice f returned for row %d", n)
		}
	}
	none := fm.Compute(0, [][]Row{{0, 1, 4, 5}})
	if none != nil {
		t.Fatalf("flatMap of rows without output = %#v, want nil", none)
	}
	if exact := fm.Compute(0, [][]Row{{2, 3}}); len(exact) != 1001 || cap(exact) != 1001 {
		t.Fatalf("flatMap output len %d cap %d, want one exact-size slice of 1001", len(exact), cap(exact))
	}
}

func TestMapPartitionsSeesWholePartition(t *testing.T) {
	ctx := testCtx(2)
	r := ctx.Parallelize(intRows(10), 2)
	sums := r.MapPartitions("partSum", 1.0, func(split int, rows []Row) []Row {
		s := 0
		for _, row := range rows {
			s += row.(int)
		}
		return []Row{s}
	})
	got := collectInts(t, sums)
	if len(got) != 2 || got[0]+got[1] != 45 {
		t.Fatalf("mapPartitions sums wrong: %v", got)
	}
}

func TestReduceByKey(t *testing.T) {
	ctx := testCtx(3)
	var rows []Row
	for i := 0; i < 12; i++ {
		rows = append(rows, Pair{K: i % 3, V: 1.0})
	}
	r := ctx.Parallelize(rows, 3)
	red := r.ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 0)
	m := pairsToMap(t, red)
	if len(m) != 3 || m[0].(float64) != 4 || m[1].(float64) != 4 || m[2].(float64) != 4 {
		t.Fatalf("reduceByKey wrong: %v", m)
	}
	if red.Fixed {
		t.Fatalf("default-parallelism shuffle should be tunable")
	}
	fixed := r.ReduceByKey(func(a, b any) any { return a }, 7)
	if !fixed.Deps[0].(*ShuffleDep).Fixed || fixed.NumParts != 7 {
		t.Fatalf("explicit-count shuffle should be fixed with 7 parts")
	}
}

// TestSumByKeyIsReduceByKeyWithTheFloatSum: the same op name, partitioner
// conventions and rows as ReduceByKey / ReduceByKeyPart with the boxed
// sum; only the aggregator carries the unboxed hooks.
func TestSumByKeyIsReduceByKeyWithTheFloatSum(t *testing.T) {
	add := func(a, b any) any { return a.(float64) + b.(float64) }
	ctx := testCtx(4)
	var rows []Row
	for i := 0; i < 500; i++ {
		rows = append(rows, Pair{K: i % 37, V: 0.1 * float64(i)})
	}
	src := ctx.Parallelize(rows, 5)
	part := NewHashPartitioner(3)
	for _, tc := range []struct {
		name        string
		sum, boxed  *RDD
		fixed       bool
		numParts    int
		samePartObj bool
	}{
		{"default", src.SumByKey(nil), src.ReduceByKey(add, 0), false, 4, false},
		{"explicit", src.SumByKey(part), src.ReduceByKeyPart(add, part), true, 3, true},
	} {
		dep, ref := tc.sum.Deps[0].(*ShuffleDep), tc.boxed.Deps[0].(*ShuffleDep)
		if tc.sum.Op != "reduceByKey" || tc.sum.Op != tc.boxed.Op || tc.sum.NumParts != tc.numParts {
			t.Fatalf("%s: op %q x%d, want reduceByKey x%d", tc.name, tc.sum.Op, tc.sum.NumParts, tc.numParts)
		}
		if dep.Fixed != tc.fixed || dep.Fixed != ref.Fixed || dep.WantRange != ref.WantRange {
			t.Fatalf("%s: fixed=%v, want %v like ReduceByKey", tc.name, dep.Fixed, tc.fixed)
		}
		if tc.samePartObj && (dep.Part != part || tc.sum.Part != part) {
			t.Fatalf("%s: the explicit partitioner was not kept", tc.name)
		}
		if !aggAllF64(dep.Agg) || !dep.Agg.MapSideCombine || aggAllF64(ref.Agg) {
			t.Fatalf("%s: SumByKey must carry the F64 hooks (and ReduceByKey cannot)", tc.name)
		}
		got, err := tc.sum.Collect()
		if err != nil {
			t.Fatal(err)
		}
		want, err := tc.boxed.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 37 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: SumByKey rows differ from ReduceByKey's:\n got %v\nwant %v", tc.name, got, want)
		}
	}
}

func TestGroupByKey(t *testing.T) {
	ctx := testCtx(2)
	rows := []Row{
		Pair{K: "a", V: 1.0}, Pair{K: "b", V: 2.0},
		Pair{K: "a", V: 3.0}, Pair{K: "b", V: 4.0}, Pair{K: "a", V: 5.0},
	}
	r := ctx.Parallelize(rows, 2)
	g := pairsToMap(t, r.GroupByKey(2))
	if len(g["a"].([]any)) != 3 || len(g["b"].([]any)) != 2 {
		t.Fatalf("groupByKey wrong: %v", g)
	}
}

func TestJoin(t *testing.T) {
	ctx := testCtx(2)
	left := ctx.Parallelize([]Row{
		Pair{K: 1, V: "l1"}, Pair{K: 2, V: "l2"}, Pair{K: 2, V: "l2b"}, Pair{K: 3, V: "l3"},
	}, 2)
	right := ctx.Parallelize([]Row{
		Pair{K: 1, V: "r1"}, Pair{K: 2, V: "r2"}, Pair{K: 4, V: "r4"},
	}, 2)
	joined, err := left.Join(right, nil).Collect()
	if err != nil {
		t.Fatal(err)
	}
	// key 1: 1 combo, key 2: 2 combos, keys 3,4 dropped.
	if len(joined) != 3 {
		t.Fatalf("join produced %d rows, want 3: %v", len(joined), joined)
	}
	for _, row := range joined {
		p := row.(Pair)
		jv := p.V.(JoinedValue)
		if p.K.(int) == 1 && (jv.Left != "l1" || jv.Right != "r1") {
			t.Fatalf("join mismatch: %v", p)
		}
	}
}

func TestCoGroupNarrowWhenCoPartitioned(t *testing.T) {
	ctx := testCtx(2)
	p := NewHashPartitioner(4)
	left := ctx.Parallelize([]Row{Pair{K: 1, V: "a"}, Pair{K: 2, V: "b"}}, 2).PartitionBy(p)
	right := ctx.Parallelize([]Row{Pair{K: 1, V: "x"}, Pair{K: 3, V: "y"}}, 2).PartitionBy(p)
	cg := left.CoGroup(right, p)
	// Both sides share the join partitioner: both dependencies must be narrow.
	for i, d := range cg.Deps {
		if _, ok := d.(*NarrowDep); !ok {
			t.Fatalf("dep %d should be narrow for co-partitioned cogroup, got %T", i, d)
		}
	}
	rows, err := cg.Collect()
	if err != nil {
		t.Fatal(err)
	}
	found := map[any][][]any{}
	for _, row := range rows {
		pr := row.(Pair)
		found[pr.K] = pr.V.([][]any)
	}
	if len(found) != 3 {
		t.Fatalf("cogroup keys = %d, want 3", len(found))
	}
	if len(found[1][0]) != 1 || len(found[1][1]) != 1 {
		t.Fatalf("key 1 groups wrong: %v", found[1])
	}
	if len(found[2][0]) != 1 || len(found[2][1]) != 0 {
		t.Fatalf("key 2 groups wrong: %v", found[2])
	}
}

func TestCoGroupShuffledWhenNotCoPartitioned(t *testing.T) {
	ctx := testCtx(2)
	left := ctx.Parallelize([]Row{Pair{K: 1, V: "a"}}, 1)
	right := ctx.Parallelize([]Row{Pair{K: 1, V: "x"}}, 1)
	cg := left.CoGroup(right, nil)
	for i, d := range cg.Deps {
		if _, ok := d.(*ShuffleDep); !ok {
			t.Fatalf("dep %d should be a shuffle, got %T", i, d)
		}
	}
}

func TestMapValuesPreservesPartitioner(t *testing.T) {
	ctx := testCtx(2)
	p := NewHashPartitioner(3)
	r := ctx.Parallelize([]Row{Pair{K: 1, V: 1.0}}, 1).PartitionBy(p)
	mv := r.MapValues(func(v any) any { return v.(float64) * 2 })
	if mv.Part == nil || mv.Part.Identity() != p.Identity() {
		t.Fatalf("mapValues must preserve the partitioner")
	}
	m := pairsToMap(t, mv)
	if m[1].(float64) != 2 {
		t.Fatalf("mapValues result wrong: %v", m)
	}
}

func TestValues(t *testing.T) {
	ctx := testCtx(2)
	r := ctx.Parallelize([]Row{Pair{K: 1, V: "a"}, Pair{K: 2, V: "b"}}, 1)
	vs, _ := r.Values().Collect()
	if len(vs) != 2 {
		t.Fatalf("values = %v", vs)
	}
}

func TestCachedRDDReuses(t *testing.T) {
	ctx := testCtx(2)
	calls := 0
	src := ctx.Generate("src", 2, 100, func(split, total int) []Row {
		calls++
		return []Row{split}
	})
	c := src.Map(func(r Row) Row { return r }).Cache()
	if _, err := c.Count(); err != nil {
		t.Fatal(err)
	}
	first := calls
	if _, err := c.Count(); err != nil {
		t.Fatal(err)
	}
	if calls != first {
		t.Fatalf("cached RDD recomputed source: %d -> %d", first, calls)
	}
}

func TestPropagateCounts(t *testing.T) {
	ctx := testCtx(4)
	src := ctx.Generate("src", 0, 100, func(split, total int) []Row { return nil })
	m := src.Map(func(r Row) Row { return r }).Filter(func(Row) bool { return true })
	red := m.Map(func(r Row) Row { return Pair{K: 0, V: r} }).ReduceByKey(func(a, b any) any { return a }, 0)
	tail := red.MapValues(func(v any) any { return v })

	src.NumParts = 9
	dep := red.Deps[0].(*ShuffleDep)
	dep.Part = NewHashPartitioner(5)
	PropagateCounts(tail)
	if m.NumParts != 9 {
		t.Fatalf("narrow child should follow source: %d", m.NumParts)
	}
	if red.NumParts != 5 || tail.NumParts != 5 {
		t.Fatalf("shuffle child should follow partitioner: %d %d", red.NumParts, tail.NumParts)
	}
}

func TestActionsWithoutRunner(t *testing.T) {
	ctx := NewContext(2) // no runner
	r := ctx.Parallelize(intRows(3), 1)
	if _, err := r.Count(); err != ErrNoRunner {
		t.Fatalf("expected ErrNoRunner, got %v", err)
	}
}

func TestSumFloat(t *testing.T) {
	ctx := testCtx(2)
	r := ctx.Parallelize([]Row{1.0, 2.0, 3.0}, 2)
	s, err := r.SumFloat()
	if err != nil || s != 6.0 {
		t.Fatalf("sumFloat: %v %v", s, err)
	}
}

func TestTopByKey(t *testing.T) {
	ctx := testCtx(3)
	r := ctx.Parallelize([]Row{Pair{K: 3, V: "c"}, Pair{K: 1, V: "a"}, Pair{K: 9, V: "i"}, Pair{K: 5, V: "e"}}, 3)
	top, err := r.TopByKey(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].K != 9 || top[1].K != 5 {
		t.Fatalf("top = %v", top)
	}
	none, err := r.TopByKey(0)
	if err != nil || none != nil {
		t.Fatalf("top(0) should be empty")
	}
	all, err := r.TopByKey(100)
	if err != nil || len(all) != 4 {
		t.Fatalf("top(100) should return everything: %v", all)
	}
}

func TestLineage(t *testing.T) {
	ctx := testCtx(2)
	a := ctx.Parallelize(intRows(4), 2)
	b := a.Map(func(r Row) Row { return r })
	c := b.Filter(func(Row) bool { return true })
	lin := c.Lineage()
	if len(lin) != 3 || lin[0].ID != c.ID || lin[2].ID != a.ID {
		t.Fatalf("lineage wrong: %v", lin)
	}
}

// Property: reduceByKey(sum) equals a driver-side group-and-sum for random
// key/value sets (the shuffle path is semantics-preserving).
func TestQuickReduceByKeyMatchesOracle(t *testing.T) {
	f := func(keys []uint8, seed int64) bool {
		if len(keys) == 0 {
			return true
		}
		ctx := testCtx(3)
		var rows []Row
		want := map[any]float64{}
		for i, k := range keys {
			key := int(k % 16)
			v := float64(i%7) + 1
			rows = append(rows, Pair{K: key, V: v})
			want[key] += v
		}
		r := ctx.Parallelize(rows, 3).ReduceByKey(func(a, b any) any {
			return a.(float64) + b.(float64)
		}, 4)
		got, err := r.CollectPairsMap()
		if err != nil || len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if gv, ok := got[k]; !ok || gv.(float64) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: count survives any repartitioning.
func TestQuickRepartitionPreservesCount(t *testing.T) {
	f := func(n uint8, parts uint8) bool {
		rows := make([]Row, int(n))
		for i := range rows {
			rows[i] = Pair{K: i, V: i}
		}
		ctx := testCtx(2)
		r := ctx.Parallelize(rows, 2).Repartition(int(parts%8) + 1)
		c, err := r.Count()
		return err == nil && c == int64(len(rows))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
