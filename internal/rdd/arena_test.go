package rdd

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// arenaAggs are the aggregator shapes the engine shuffles under, nil
// meaning a plain repartition. Float-asserting aggregators are only
// valid over float64 values, so callers pass whether the row set
// carries them.
func arenaAggs(f64Vals bool) map[string]*Aggregator {
	aggs := map[string]*Aggregator{
		"nil":    nil,
		"concat": ReduceAggregator(func(a, b any) any { return fmt.Sprint(a) + "|" + fmt.Sprint(b) }),
		"group":  GroupAggregator(),
	}
	if f64Vals {
		aggs["sum"] = SumAggregator()
		aggs["reduce"] = ReduceAggregator(func(a, b any) any { return a.(float64) + b.(float64) })
	}
	return aggs
}

// colViaArena partitions rows through the arena writer and returns the
// per-bucket views plus whether the columnar path ran.
func colViaArena(t *testing.T, rows []Row, p Partitioner, agg *Aggregator) ([]*ColBlock, bool) {
	t.Helper()
	cols, boxed, err := PartitionPairsCol(rows, p, agg)
	if err != nil {
		t.Fatal(err)
	}
	return bucketViews(cols), boxed == nil
}

// bucketViews returns the view of every bucket of an arena, by bucket.
func bucketViews(cols *ColBuckets) []*ColBlock {
	out := make([]*ColBlock, cols.NumBuckets())
	for b := range out {
		out[b] = new(ColBlock)
		cols.BucketInto(b, out[b])
	}
	return out
}

// mergeViews merges blocks, in order, with the adapter MergeReduceColN.
func mergeViews(blocks []*ColBlock, agg *Aggregator) []Row {
	return MergeReduceColN(len(blocks), func(i int, dst *ColBlock) { *dst = *blocks[i] }, agg)
}

// bucketRefs returns the ref of bucket b of an arena, or none when b holds
// nothing: what a reduce index lists of the arena for reduce partition b.
func bucketRefs(cols *ColBuckets, b int) []BlockRef {
	if i, ok := cols.position(b); ok {
		return []BlockRef{cols.Ref(i)}
	}
	return nil
}

// refsOf returns the refs of the non-empty blocks, in order, each in an
// arena of its own.
func refsOf(blocks []*ColBlock) []BlockRef {
	return viewRefs(len(blocks), func(i int, dst *ColBlock) { *dst = *blocks[i] })
}

// sameRows reports whether got and want hold the same pairs in the same
// order, float64 values compared bit for bit, and are both nil or neither.
func sameRows(got, want []Row) bool {
	if len(got) != len(want) || (got == nil) != (want == nil) {
		return false
	}
	for i := range got {
		g, gok := got[i].(Pair)
		w, wok := want[i].(Pair)
		if !gok || !wok {
			if gok != wok || !reflect.DeepEqual(got[i], want[i]) {
				return false
			}
			continue
		}
		gf, gIsF := g.V.(float64)
		wf, wIsF := w.V.(float64)
		switch {
		case gIsF != wIsF || !reflect.DeepEqual(g.K, w.K):
			return false
		case gIsF && math.Float64bits(gf) != math.Float64bits(wf):
			return false
		case !gIsF && !reflect.DeepEqual(g.V, w.V):
			return false
		}
	}
	return true
}

// checkTypedMerge requires w.MergeTypedRefs to take exactly the reduce
// inputs it serves — ColIntF64 blocks under an aggregator that CombinesF64
// — and then to hold want's rows, float bits included; declining, it must
// leave dst as it was.
func checkTypedMerge(t *testing.T, w *Scratch, refs []BlockRef, agg *Aggregator, want []Row) {
	t.Helper()
	serves := agg.CombinesF64()
	for _, r := range refs {
		if r.a.kind != ColIntF64 {
			serves = false
		}
	}
	held := ColBlock{Kind: ColIntAny, Int: []int64{-1}, Any: []any{"held"}}
	dst := held
	if ok := w.MergeTypedRefs(refs, agg, &dst); ok != serves {
		t.Fatalf("MergeTypedRefs over %d blocks reports %v, want %v", len(refs), ok, serves)
	}
	if !serves {
		if !reflect.DeepEqual(dst, held) {
			t.Fatalf("MergeTypedRefs declined but wrote %+v", dst)
		}
		return
	}
	if got := dst.Rows(); len(want) > 0 && !sameRows(got, want) || len(want) == 0 && len(got) > 0 {
		t.Fatalf("MergeTypedRefs holds\n%v\nwant\n%v", got, want)
	}
}

// TestArenaMatchesBoxedPartition pins the write-side contract: for every
// key/value/aggregator shape, the arena buckets materialize to exactly
// the pairs the boxed partitionPairs produces, bucket for bucket, pair for pair.
func TestArenaMatchesBoxedPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rowSets := map[string]rowSet{
		"int/f64":   {genRows(rng, 500, func(i int) Pair { return Pair{K: rng.Intn(40), V: rng.Float64() * 10} }), true},
		"str/f64":   {genRows(rng, 500, func(i int) Pair { return Pair{K: fmt.Sprintf("k%03d", rng.Intn(40)), V: rng.Float64()} }), true},
		"int/str":   {genRows(rng, 300, func(i int) Pair { return Pair{K: rng.Intn(25), V: fmt.Sprintf("v%d", i)} }), false},
		"str/str":   {genRows(rng, 300, func(i int) Pair { return Pair{K: fmt.Sprintf("k%d", rng.Intn(25)), V: fmt.Sprintf("v%d", i)} }), false},
		"f64 keys":  {genRows(rng, 200, func(i int) Pair { return Pair{K: rng.Float64(), V: rng.Float64()} }), true},
		"mixed val": {genRows(rng, 200, func(i int) Pair { return mixedValPair(rng, i) }), false},
		"empty":     {nil, true},
	}
	for rn, rs := range rowSets {
		rows := rs.rows
		for an, agg := range arenaAggs(rs.f64) {
			for _, n := range []int{1, 7} {
				p := NewHashPartitioner(n)
				want, err := partitionPairs(rows, p, agg)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := colViaArena(t, rows, p, agg)
				if len(got) != len(want) && !(len(got) == n && len(want) == n) {
					t.Fatalf("%s/%s/%d: bucket count %d vs %d", rn, an, n, len(got), len(want))
				}
				for b := range want {
					gp := got[b].AppendPairs(nil)
					if !pairsEqual(gp, want[b]) {
						t.Fatalf("%s/%s/n=%d bucket %d:\n got %v\nwant %v", rn, an, n, b, gp, want[b])
					}
				}
			}
		}
	}
}

// TestArenaMergeMatchesBoxed pins the read-side contract end to end:
// arena blocks merged by reference with MergeReduceRefs, and their views
// merged with the adapter MergeReduceColN, equal the boxed
// partitionPairs+mergeReduceBlocks pipeline, including float64 fold order.
func TestArenaMergeMatchesBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rowSets := map[string]rowSet{
		"int/f64": {genRows(rng, 600, func(i int) Pair { return Pair{K: rng.Intn(50), V: rng.Float64() * 3} }), true},
		"str/f64": {genRows(rng, 600, func(i int) Pair { return Pair{K: fmt.Sprintf("k%03d", rng.Intn(50)), V: rng.Float64()} }), true},
		"int/str": {genRows(rng, 400, func(i int) Pair { return Pair{K: rng.Intn(30), V: fmt.Sprintf("v%d", i)} }), false},
		"str/any": {genRows(rng, 400, func(i int) Pair { return mixedValPair(rng, i) }), false},
		"empty":   {nil, true},
	}
	const maps = 4
	for rn, rs := range rowSets {
		rows := rs.rows
		for an, agg := range arenaAggs(rs.f64) {
			p := NewHashPartitioner(3)
			for reduce := 0; reduce < 3; reduce++ {
				var boxedBlocks [][]Pair
				var colBlocks []*ColBlock
				var refs []BlockRef
				for m := 0; m < maps; m++ {
					lo, hi := m*len(rows)/maps, (m+1)*len(rows)/maps
					wb, err := partitionPairs(rows[lo:hi], p, agg)
					if err != nil {
						t.Fatal(err)
					}
					boxedBlocks = append(boxedBlocks, wb[reduce])
					cols, _, err := PartitionPairsCol(rows[lo:hi], p, agg)
					if err != nil {
						t.Fatal(err)
					}
					colBlocks = append(colBlocks, bucketViews(cols)[reduce])
					refs = append(refs, bucketRefs(cols, reduce)...)
				}
				want := mergeReduceBlocks(boxedBlocks, agg)
				if got := pooled.MergeReduceRefs(refs, agg); !sameRows(got, want) {
					t.Fatalf("%s/%s reduce %d:\n got %v\nwant %v", rn, an, reduce, got, want)
				}
				if got := mergeViews(colBlocks, agg); !sameRows(got, want) {
					t.Fatalf("%s/%s reduce %d, adapter:\n got %v\nwant %v", rn, an, reduce, got, want)
				}
			}
		}
	}
}

// TestArenaMergeMixedKinds pins the fallback: a reduce partition fed by
// columnar and boxed map outputs at once merges through materialization,
// identical to the all-boxed pipeline.
func TestArenaMergeMixedKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	intRows := genRows(rng, 200, func(i int) Pair { return Pair{K: rng.Intn(20), V: rng.Float64()} })
	// Heterogeneous keys force the boxed fallback for this map task.
	hetRows := append(genRows(rng, 100, func(i int) Pair { return Pair{K: rng.Intn(20), V: rng.Float64()} }),
		Pair{K: "odd-one", V: 1.5})
	agg := SumAggregator()
	p := NewHashPartitioner(2)

	wantBlocks := make([][]Pair, 0, 2)
	gotBlocks := make([]*ColBlock, 0, 2)
	for _, rows := range [][]Row{intRows, hetRows} {
		wb, err := partitionPairs(rows, p, agg)
		if err != nil {
			t.Fatal(err)
		}
		wantBlocks = append(wantBlocks, wb[0])
		cb, _ := colViaArena(t, rows, p, agg)
		gotBlocks = append(gotBlocks, cb[0])
	}
	if gotBlocks[0].Kind == ColNone || gotBlocks[1].Kind != ColNone {
		t.Fatalf("kind probe: want columnar+boxed mix, got %v/%v", gotBlocks[0].Kind, gotBlocks[1].Kind)
	}
	want := mergeReduceBlocks(wantBlocks, agg)
	got := mergeViews(gotBlocks, agg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed-kind merge diverged:\n got %v\nwant %v", got, want)
	}
}

// TestArenaLogicalBytesMatchesBoxed pins payload accounting bit for bit:
// simulated shuffle volumes (and through them every trace) must not
// depend on which layout carried the pairs. Float addition is not
// associative, so this is an exact-equality test on purpose.
func TestArenaLogicalBytesMatchesBoxed(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	rowSets := map[string]rowSet{
		"int/f64": {genRows(rng, 500, func(i int) Pair { return Pair{K: rng.Intn(40), V: rng.Float64()} }), true},
		"str/f64": {genRows(rng, 500, func(i int) Pair { return Pair{K: fmt.Sprintf("key-%04d", rng.Intn(40)), V: rng.Float64()} }), true},
		"int/str": {genRows(rng, 300, func(i int) Pair { return Pair{K: rng.Intn(25), V: fmt.Sprintf("val-%d", i%17)} }), false},
		"str/any": {genRows(rng, 300, func(i int) Pair { return mixedValPair(rng, i) }), false},
	}
	for rn, rs := range rowSets {
		rows := rs.rows
		for an, agg := range arenaAggs(rs.f64) {
			p := NewHashPartitioner(5)
			boxed, err := partitionPairs(rows, p, agg)
			if err != nil {
				t.Fatal(err)
			}
			cols, _, err := PartitionPairsCol(rows, p, agg)
			if err != nil {
				t.Fatal(err)
			}
			for _, scale := range []float64{1, 1000.0 / 3.0} {
				for b := range boxed {
					want := LogicalPairsBytes(boxed[b], scale)
					got := cols.LogicalBytes(b, scale)
					if got != want {
						t.Fatalf("%s/%s bucket %d scale %v: %v != %v", rn, an, b, scale, got, want)
					}
				}
			}
		}
	}
}

// TestArenaKindSelection pins the eligibility matrix the issue specifies.
func TestArenaKindSelection(t *testing.T) {
	intF64 := []Row{Pair{K: 1, V: 2.0}, Pair{K: 2, V: 3.0}}
	strF64 := []Row{Pair{K: "a", V: 2.0}, Pair{K: "b", V: 3.0}}
	intStr := []Row{Pair{K: 1, V: "x"}}
	strStr := []Row{Pair{K: "a", V: "x"}}
	p := NewHashPartitioner(2)
	cases := []struct {
		name string
		rows []Row
		agg  *Aggregator
		want ColKind
	}{
		{"combine int f64", intF64, SumAggregator(), ColIntF64},
		{"combine str f64 stays boxed", strF64, SumAggregator(), ColNone},
		{"combine int any", intStr, ReduceAggregator(func(a, b any) any { return a }), ColIntAny},
		{"combine str any stays boxed", strStr, ReduceAggregator(func(a, b any) any { return a }), ColNone},
		{"scatter int f64", intF64, nil, ColIntF64},
		{"scatter int any under group", intF64, GroupAggregator(), ColIntAny},
		{"scatter int any values", intStr, nil, ColIntAny},
		{"scatter str stays boxed", strF64, nil, ColNone},
		{"scatter str under group stays boxed", strF64, GroupAggregator(), ColNone},
	}
	for _, tc := range cases {
		cols, boxed, err := PartitionPairsCol(tc.rows, p, tc.agg)
		if err != nil {
			t.Fatal(err)
		}
		if cols == nil || cols.kind != tc.want {
			t.Fatalf("%s: arena %+v, want kind %v", tc.name, cols, tc.want)
		}
		if (boxed == nil) == (tc.want == ColNone) {
			t.Errorf("%s: boxed buckets %v; they must be returned exactly when the boxed tier ran", tc.name, boxed)
		}
	}
}

// TestStringKeysWithoutMapSideCombine pins, against hand-written rows, two
// string-keyed shapes, which cross the shuffle in the boxed tier as every
// key type but int does: string keys under a reduce-only aggregator and
// string keys with no aggregator at all.
func TestStringKeysWithoutMapSideCombine(t *testing.T) {
	maps := [][]Row{
		{Pair{K: "b", V: 1.0}, Pair{K: "a", V: 2.0}, Pair{K: "b", V: 3.0}},
		{Pair{K: "a", V: 4.0}, Pair{K: "c", V: 5.0}},
	}
	cases := []struct {
		name string
		agg  *Aggregator
		want []Row
	}{
		{"reduce-only aggregator", GroupAggregator(), []Row{
			Pair{K: "a", V: []any{2.0, 4.0}},
			Pair{K: "b", V: []any{1.0, 3.0}},
			Pair{K: "c", V: []any{5.0}},
		}},
		{"no aggregator", nil, []Row{
			Pair{K: "a", V: 2.0}, Pair{K: "a", V: 4.0},
			Pair{K: "b", V: 1.0}, Pair{K: "b", V: 3.0},
			Pair{K: "c", V: 5.0},
		}},
	}
	p := NewHashPartitioner(1)
	for _, tc := range cases {
		var blocks []*ColBlock
		for _, rows := range maps {
			cb, columnar := colViaArena(t, rows, p, tc.agg)
			if columnar {
				t.Fatalf("%s: string scatter must stay boxed", tc.name)
			}
			blocks = append(blocks, cb[0])
		}
		if got := mergeViews(blocks, tc.agg); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %v\nwant %v", tc.name, got, tc.want)
		}
	}
}

// TestArenaOwnsEmptyInput pins that a map task with no rows never reaches
// the boxed tier: it gets a segment-less arena whose every bucket is an
// empty, zero-byte view, and merging only such views yields no rows.
func TestArenaOwnsEmptyInput(t *testing.T) {
	for _, agg := range []*Aggregator{nil, SumAggregator(), GroupAggregator()} {
		cols, boxed, err := PartitionPairsCol(nil, NewHashPartitioner(5), agg)
		if err != nil || cols == nil || boxed != nil {
			t.Fatalf("empty input: cols=%v boxed=%v err=%v, want an arena only", cols, boxed, err)
		}
		if cols.NumBuckets() != 5 || cols.Len() != 0 || len(cols.NonEmpty()) != 0 {
			t.Fatalf("empty arena: %d buckets, %d pairs, non-empty ids %v; want 5 buckets holding nothing",
				cols.NumBuckets(), cols.Len(), cols.NonEmpty())
		}
		blocks := bucketViews(cols)
		for b, blk := range blocks {
			if blk.Len() != 0 || cols.LogicalBytes(b, 1000) != 0 {
				t.Fatalf("bucket %d of an empty arena: len %d, %v bytes", b, blk.Len(), cols.LogicalBytes(b, 1000))
			}
		}
		if got := mergeViews(blocks, agg); got == nil || len(got) != 0 {
			t.Fatalf("merging empty views: got %#v, want non-nil empty rows", got)
		}
	}
}

// TestNonEmptyMatchesBuckets: the ids the shuffle index is built from are
// exactly the buckets whose view holds a pair, ascending, and the view at
// each position is the bucket's own.
func TestNonEmptyMatchesBuckets(t *testing.T) {
	rows := []Row{Pair{K: 3, V: 1.0}, Pair{K: 40, V: 2.0}, Pair{K: 3, V: 3.0}, Pair{K: 17, V: 4.0}}
	for _, agg := range []*Aggregator{nil, SumAggregator()} {
		cols, _, err := PartitionPairsCol(rows, NewHashPartitioner(64), agg)
		if err != nil || cols == nil || cols.Len() == 0 {
			t.Fatalf("typed rows: cols=%v err=%v, want a non-empty arena", cols, err)
		}
		views := bucketViews(cols)
		var want []int32
		for b, blk := range views {
			if blk.Len() > 0 {
				want = append(want, int32(b))
			}
		}
		if got := cols.NonEmpty(); !reflect.DeepEqual(got, want) || len(got) < 2 {
			t.Fatalf("non-empty bucket ids = %v, want %v", got, want)
		}
		for i, b := range cols.NonEmpty() {
			var blk ColBlock
			cols.BlockInto(i, &blk)
			if want := views[b]; !reflect.DeepEqual(&blk, want) {
				t.Fatalf("position %d: view %+v, want bucket %d's %+v", i, blk, b, want)
			}
		}
	}
}

// rowSet pairs test rows with whether every value is a float64 (and so
// float-asserting aggregators are applicable).
type rowSet struct {
	rows []Row
	f64  bool
}

func genRows(rng *rand.Rand, n int, f func(i int) Pair) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = f(i)
	}
	return rows
}

// mixedValPair produces string-keyed pairs whose values alternate types,
// exercising the any-value segments and scale-invariance sizing.
func mixedValPair(rng *rand.Rand, i int) Pair {
	k := fmt.Sprintf("k%02d", rng.Intn(20))
	switch i % 3 {
	case 0:
		return Pair{K: k, V: rng.Float64()}
	case 1:
		return Pair{K: k, V: fmt.Sprintf("s%d", i)}
	default:
		return Pair{K: k, V: i}
	}
}

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestRefMergeMatchesBoxedMerge: the ref kernels read arena blocks in place
// and must merge exactly what the boxed reference merge (mergeReduceBlocks)
// makes of the same blocks materialized into pairs, float64 bits included.
// Each trial partitions up to five map tasks over a few reduce partitions,
// keys shared across the maps; each map task draws its own layout — int
// keys with float64 values (ColIntF64), int keys with some boxed values
// (ColIntAny), int64 keys (the boxed tier's ColNone) or no rows at all — so
// a reduce partition mixes kinds. Every aggregator shape runs: combining
// map-side with and without the F64 hooks, reduce-only with and without
// them, and none; a reduce-only one's map tasks scatter with or without it
// (values in their boxes, or unboxed). The row merge, the typed merge and
// the adapter run on the pools and on one owned Scratch.
func TestRefMergeMatchesBoxedMerge(t *testing.T) {
	sum := SumAggregator()
	reduceOnly := *sum
	reduceOnly.MapSideCombine = false
	aggs := []struct {
		name string
		agg  *Aggregator
		f64  bool // the aggregator asserts float64 values
	}{
		{"none", nil, false},
		{"sum", sum, true},
		{"reduce-only sum", &reduceOnly, true},
		{"boxed sum", ReduceAggregator(func(a, b any) any { return a.(float64) + b.(float64) }), true},
		{"concat", ReduceAggregator(func(a, b any) any { return fmt.Sprint(a, "|", b) }), false},
		{"group", GroupAggregator(), false},
	}
	kinds := map[ColKind]int{}
	for _, w := range []*Scratch{pooled, new(Scratch)} {
		rng := rand.New(rand.NewSource(61))
		for trial := 0; trial < 240; trial++ {
			a := aggs[trial%len(aggs)]
			parts, keys := 1+rng.Intn(4), 1+rng.Intn(30)
			p := NewHashPartitioner(parts)
			var arenas []*ColBuckets
			for m := rng.Intn(6); m > 0; m-- {
				layout, n := rng.Intn(4), 1+rng.Intn(40)
				if layout == 3 {
					n = 0
				}
				var rows []Row
				for i := 0; i < n; i++ {
					var k, v any = rng.Intn(keys) - keys/3, rng.NormFloat64() * math.Pow(10, float64(rng.Intn(16)-8))
					switch {
					case layout == 1 && !a.f64 && i%2 == 1:
						v = fmt.Sprint("v", i)
					case layout == 2:
						k = int64(k.(int))
					}
					rows = append(rows, Pair{K: k, V: v})
				}
				mapAgg := a.agg
				if a.agg != nil && !a.agg.MapSideCombine && rng.Intn(2) == 0 {
					mapAgg = nil
				}
				cols, _, err := PartitionPairsCol(rows, p, mapAgg)
				if err != nil {
					t.Fatal(err)
				}
				arenas = append(arenas, cols)
			}
			for b := 0; b < parts; b++ {
				var refs []BlockRef
				var views []*ColBlock
				var pairs [][]Pair
				for _, cols := range arenas {
					for _, r := range bucketRefs(cols, b) {
						blk := new(ColBlock)
						r.Into(blk)
						refs, views, pairs = append(refs, r), append(views, blk), append(pairs, blk.AppendPairs(nil))
						kinds[blk.Kind]++
					}
				}
				want := mergeReduceBlocks(pairs, a.agg)
				if got := w.MergeReduceRefs(refs, a.agg); !sameRows(got, want) {
					t.Fatalf("trial %d (%s) reduce %d: ref merge\n%v\nwant\n%v", trial, a.name, b, got, want)
				}
				checkTypedMerge(t, w, refs, a.agg, want)
				if got := mergeViews(views, a.agg); !sameRows(got, want) {
					t.Fatalf("trial %d (%s) reduce %d: adapter merge\n%v\nwant\n%v", trial, a.name, b, got, want)
				}
			}
		}
	}
	for _, k := range []ColKind{ColIntF64, ColIntAny, ColNone} {
		if kinds[k] == 0 {
			t.Errorf("no block of kind %d was drawn", k)
		}
	}
}
