package rdd

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestTypedColMatchesBoxedArena pins PartitionTypedCol's contract: for a
// ColIntF64 block under every partitioner and aggregator shape, the arena
// (boxed buckets included) or the error is exactly what PartitionPairsCol
// builds from the block's boxed rows — the typed fold under SumByKey's
// aggregator, the boxed call for everything else — and int keys route to
// the partition PartitionFor gives their boxed form.
func TestTypedColMatchesBoxedArena(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 60; trial++ {
		n, keys := rng.Intn(300), 1+rng.Intn(80)
		blk := &ColBlock{Kind: ColIntF64}
		var sample []any
		for i := 0; i < n; i++ {
			k := rng.Intn(2*keys) - keys/2
			if rng.Intn(10) == 0 {
				k *= 1 << (bits.UintSize/2 + 8) // wide keys hash and order too: 2^40, or 2^24 where int is 32 bits
			}
			blk.Int = append(blk.Int, int64(k))
			blk.F64 = append(blk.F64, rng.NormFloat64()*float64(rng.Intn(1000)))
			sample = append(sample, k)
		}
		reduce := 1 + rng.Intn(64)
		parts := map[string]Partitioner{
			"hash":  NewHashPartitioner(reduce),
			"range": NewRangePartitionerFromSample(reduce, sample),
		}
		aggs := map[string]*Aggregator{
			"sum":    SumAggregator(),
			"nil":    nil,
			"reduce": ReduceAggregator(func(a, b any) any { return a.(float64) + b.(float64) }),
		}
		for pn, p := range parts {
			for _, k := range blk.Int {
				if got, want := partitionInt(p, k), p.PartitionFor(int(k)); got != want {
					t.Fatalf("%s/%d: key %d routes to %d unboxed, %d boxed", pn, reduce, k, got, want)
				}
			}
			for an, agg := range aggs {
				var gotCols ColBuckets
				gotErr := pooled.PartitionTypedCol(blk, p, agg, &gotCols)
				wantCols, _, wantErr := PartitionPairsCol(blk.Rows(), p, agg)
				if wantErr == nil && !reflect.DeepEqual(&gotCols, wantCols) || !reflect.DeepEqual(gotErr, wantErr) {
					t.Fatalf("trial %d %s/%d/%s, %d pairs: typed arena differs from the boxed rows'", trial, pn, reduce, an, n)
				}
			}
		}
	}
	// A scalar column is not pairs: the boxed call's error, unchanged.
	scalars := &ColBlock{Kind: ColF64, F64: []float64{1, 2}}
	if err := pooled.PartitionTypedCol(scalars, NewHashPartitioner(3), SumAggregator(), new(ColBuckets)); err == nil {
		t.Fatal("a ColF64 block shuffled without error")
	}
}

// TestTypedComputeMatchesBoxedOps: the Compute MapFloat derives from its
// typed compute returns exactly the rows MapCost returns for the same
// closure, empty partitions included (an empty slice, not nil).
func TestTypedComputeMatchesBoxedOps(t *testing.T) {
	ctx := NewContext(2)
	for _, n := range []int{0, 1, 37} {
		in := make([]Row, n)
		for i := range in {
			in[i] = Pair{K: i % 5, V: float64(i) / 3}
		}
		src := ctx.Generate("src", 1, 1, nil)
		score := func(r Row) float64 { return r.(Pair).V.(float64) * 2 }
		gotMap := src.MapFloat("score", 0.8, score).Compute(0, [][]Row{in})
		wantMap := src.MapCost("score", 0.8, func(r Row) Row { return score(r) }).Compute(0, [][]Row{in})
		if !reflect.DeepEqual(gotMap, wantMap) {
			t.Fatalf("MapFloat over %d rows: %v, want %v", n, gotMap, wantMap)
		}
	}
}

// TestTypedPairChainMatchesRowOps: GenerateFloatPairs' Gen and Compute
// return the rows the equivalent Generate returns, and MapFloatPairs'
// Compute the rows of the Filter and MapCost it stands for; its typed
// compute fills the same block from its parent's columns (one ColPart row,
// as the engine hands them over) as from the parent's rows, empty
// partitions included.
func TestTypedPairChainMatchesRowOps(t *testing.T) {
	ctx := NewContext(2)
	gen := func(split, total int, emit func(int, float64)) {
		for i := split; i < 37; i += total {
			emit(i%5-1, float64(i)/3)
		}
	}
	typedSrc := ctx.GenerateFloatPairs("orders", 0, 1, gen)
	rowSrc := ctx.Generate("orders", 0, 1, func(split, total int) []Row {
		var out []Row
		gen(split, total, func(k int, v float64) { out = append(out, Pair{K: k, V: v}) })
		return out
	})
	if typedSrc.Op != rowSrc.Op || typedSrc.Fixed || typedSrc.Gen == nil || typedSrc.NumParts != rowSrc.NumParts {
		t.Fatalf("typed source %+v differs from its Generate twin %+v", typedSrc, rowSrc)
	}
	m := typedSrc.MapFloatPairs("filter", 0.4, func(k int, v float64) (int, float64, bool) { return k * 2, v + 1, k%2 != 0 })
	filter := rowSrc.Filter(func(r Row) bool { return r.(Pair).K.(int)%2 != 0 })
	project := filter.MapCost("project", 8.0, func(r Row) Row { p := r.(Pair); return Pair{K: p.K.(int) * 2, V: p.V.(float64) + 1} })
	for _, total := range []int{1, 4, 40} {
		for split := range total {
			rows := rowSrc.Gen(split, total)
			if got := typedSrc.Gen(split, total); !reflect.DeepEqual(got, rows) {
				t.Fatalf("split %d/%d: GenerateFloatPairs gives %v, want %v", split, total, got, rows)
			}
			var blk ColBlock
			typedSrc.NumParts = total
			typedSrc.Typed(split, nil, &blk)
			if got := typedSrc.Compute(split, nil); !reflect.DeepEqual(got, rows) || !reflect.DeepEqual(blk.Rows(), rows) {
				t.Fatalf("split %d/%d: typed source computes %v and %v, want %v", split, total, got, blk.Rows(), rows)
			}
			// MapCost gives an empty slice where MapFloatPairs gives nil.
			wantRows := project.Compute(split, [][]Row{filter.Compute(split, [][]Row{rows})})
			if got := m.Compute(split, [][]Row{rows}); len(got)+len(wantRows) > 0 && !reflect.DeepEqual(got, wantRows) {
				t.Fatalf("split %d/%d: MapFloatPairs computes %v, want %v", split, total, got, wantRows)
			}
			var fromRows, fromCols ColBlock
			m.Typed(split, [][]Row{rows}, &fromRows)
			m.Typed(split, [][]Row{{ColPart(&blk)}}, &fromCols)
			if !reflect.DeepEqual(fromRows, fromCols) {
				t.Fatalf("split %d/%d: MapFloatPairs fills %+v from rows, %+v from columns", split, total, fromRows, fromCols)
			}
		}
	}
}

// TestColBlockLogicalBytes: a typed block's logical size is bit for bit
// LogicalRowsBytes of the rows it boxes into, at scales whose per-row size
// a product would round differently from a row-by-row sum.
func TestColBlockLogicalBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, scale := range []float64{1, 1000, 1000 / math.Pi, 1234.5678, 1e-3} {
		for _, n := range []int{0, 1, 3, 77, 1000} {
			pairs := ColBlock{Kind: ColIntF64}
			scalars := ColBlock{Kind: ColF64}
			for range n {
				pairs.Int = append(pairs.Int, int64(rng.Intn(1<<20)))
				pairs.F64 = append(pairs.F64, rng.NormFloat64())
				scalars.F64 = append(scalars.F64, rng.NormFloat64())
			}
			for _, blk := range []*ColBlock{&pairs, &scalars} {
				got, want := blk.LogicalBytes(scale), LogicalRowsBytes(blk.Rows(), scale)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("kind %d, %d rows at scale %v: %v bytes, want %v", blk.Kind, n, scale, got, want)
				}
			}
		}
	}
}

// drawJoin draws one JoinFlatMapFloatPairs task's input: per side, narrow
// (one value per record, keys repeating) or shuffled (one merged group per
// key, sometimes empty), 0–48 records over up to 12 int keys. Left values
// are strings of varying length, so their sizes differ; right values are
// float64s of widely varying magnitude.
func drawJoin(rng *rand.Rand) ([][]Row, [2]bool) {
	span := 1 + rng.Intn(12)
	var narrow [2]bool
	in := make([][]Row, 2)
	value := func(side, r, j int) any {
		if side == 0 {
			return fmt.Sprintf("v%d.%d%s", r, j, strings.Repeat("x", rng.Intn(9)))
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-4))
	}
	for side := range in {
		narrow[side] = rng.Intn(3) != 0
		n := rng.Intn(49)
		seen := map[int]bool{}
		for r := 0; r < n; r++ {
			k := rng.Intn(2*span) - span/2
			if narrow[side] {
				in[side] = append(in[side], Pair{K: k, V: value(side, r, 0)})
				continue
			}
			if seen[k] {
				continue
			}
			seen[k] = true
			g := make([]any, rng.Intn(4))
			for j := range g {
				g[j] = value(side, r, j)
			}
			in[side] = append(in[side], Pair{K: k, V: g})
		}
	}
	return in, narrow
}

// floatCols returns rows, each a Pair{K: int, V: float64}, as the
// ColIntF64 block a typed parent would hand over.
func floatCols(rows []Row) *ColBlock {
	blk := &ColBlock{Kind: ColIntF64}
	for _, row := range rows {
		p := row.(Pair)
		blk.Int = append(blk.Int, int64(p.K.(int)))
		blk.F64 = append(blk.F64, p.V.(float64))
	}
	return blk
}

// TestTypedJoinMatchesRowOps: JoinFlatMapFloatPairs builds the three RDDs
// Join(o, p).FlatMap builds — ops, cost factors, dependency kinds,
// partitioners and counts — and over 400 drawn task inputs each of them
// boxes exactly the rows of its row twin (CoGroup, Join, FlatMap; by
// reflect.DeepEqual, so a nil side is told from an empty one), fills the same block from its input's columns as from its
// rows (a typed right side, the cogroup's group block, the join's
// matches), and sizes each block bit for bit as LogicalRowsBytes sizes its
// rows.
func TestTypedJoinMatchesRowOps(t *testing.T) {
	ctx := NewContext(2)
	p := NewHashPartitioner(3)
	f := func(k int, left Row, right float64, emit func(int, float64)) {
		emit(k%4, right*float64(len(left.(string))))
		if k%3 == 0 {
			emit(-k, right)
		}
	}
	rowF := func(r Row) []Row {
		pr := r.(Pair)
		jv := pr.V.(JoinedValue)
		var out []Row
		f(pr.K.(int), jv.Left, jv.Right.(float64), func(k int, v float64) { out = append(out, Pair{K: k, V: v}) })
		return out
	}
	for seed := int64(0); seed < 400; seed++ {
		in, narrow := drawJoin(rand.New(rand.NewSource(seed)))
		parent := func(i int) *RDD {
			r := ctx.Parallelize(nil, 1)
			if narrow[i] {
				r = r.PartitionBy(p)
			}
			return r
		}
		left, right := parent(0), parent(1)
		flat := left.JoinFlatMapFloatPairs(right, p, f)
		rowFlat := left.Join(right, p).FlatMap(rowF)
		typed, rowOps := flat.Lineage(), rowFlat.Lineage()
		if len(typed) != len(rowOps) {
			t.Fatalf("lineage of %d RDDs, the row ops' %d", len(typed), len(rowOps))
		}
		for i, r := range typed {
			w := rowOps[i]
			if r.Op != w.Op || r.CostFactor != w.CostFactor || r.NumParts != w.NumParts || (r.Recount == nil) != (w.Recount == nil) ||
				r.Recount != nil && r.Recount() != w.Recount() || (r.Part == nil) != (w.Part == nil) || len(r.Deps) != len(w.Deps) {
				t.Fatalf("RDD %d: %s cost %v, %d parts; the row ops' %s cost %v, %d parts", i, r.Op, r.CostFactor, r.NumParts, w.Op, w.CostFactor, w.NumParts)
			}
			for j, d := range r.Deps {
				if reflect.TypeOf(d) != reflect.TypeOf(w.Deps[j]) {
					t.Fatalf("RDD %d (%s) dependency %d: %T, the row ops' %T", i, r.Op, j, d, w.Deps[j])
				}
			}
		}
		joined := flat.Deps[0].Parent()
		cg := joined.Deps[0].Parent()
		rowJoined := rowFlat.Deps[0].Parent()
		rowCg := rowJoined.Deps[0].Parent()
		if cg.Part.Identity() != p.Identity() || joined.Part.Identity() != p.Identity() || flat.Part != nil {
			t.Fatal("JoinFlatMapFloatPairs' partitioners differ from Join's")
		}

		groups := rowCg.Compute(0, in)
		matches := rowJoined.Compute(0, [][]Row{groups})
		pairs := rowFlat.Compute(0, [][]Row{matches})
		what := fmt.Sprintf("seed %d (narrow %v)", seed, narrow)
		for _, c := range []struct {
			name      string
			got, want []Row
		}{
			{"cogroup", cg.Compute(0, in), groups},
			{"join", joined.Compute(0, [][]Row{groups}), matches},
			{"flatMap", flat.Compute(0, [][]Row{matches}), pairs},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("%s: %s boxes\n %#v\nwant %#v", what, c.name, c.got, c.want)
			}
		}

		// fill runs a typed compute into a fresh block.
		fill := func(r *RDD, in ...[]Row) *ColBlock {
			var blk ColBlock
			r.Typed(0, in, &blk)
			return &blk
		}
		gBlk := fill(cg, in...)
		if narrow[1] {
			if blk := fill(cg, in[0], []Row{ColPart(floatCols(in[1]))}); !reflect.DeepEqual(blk, gBlk) {
				t.Fatalf("%s: cogroup fills %+v from a typed right side, %+v from its rows", what, blk, gBlk)
			}
		}
		jBlk := fill(joined, []Row{ColPart(gBlk)})
		if blk := fill(joined, groups); !reflect.DeepEqual(blk, jBlk) {
			t.Fatalf("%s: join fills %+v from the group block, %+v from its rows", what, jBlk, blk)
		}
		fBlk := fill(flat, []Row{ColPart(jBlk)})
		if blk := fill(flat, matches); !reflect.DeepEqual(blk, fBlk) {
			t.Fatalf("%s: flatMap fills %+v from the match block, %+v from its rows", what, fBlk, blk)
		}
		for _, scale := range []float64{1, 1000 / math.Pi, 1e-3} {
			for _, b := range []struct {
				blk  *ColBlock
				rows []Row
			}{{gBlk, groups}, {jBlk, matches}, {fBlk, pairs}} {
				got, want := b.blk.LogicalBytes(scale), LogicalRowsBytes(b.rows, scale)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: kind %d block of %d rows at scale %v sizes %v bytes, its rows %v", what, b.blk.Kind, len(b.rows), scale, got, want)
				}
			}
		}
	}
}

// TestMapFloatValuesMatchesMapValues: MapFloatValues is MapValues under
// the same op, cost factor and partitioner, its Compute returns MapValues'
// rows (nil where MapValues gives an empty slice) and its typed compute
// fills the same block from a typed parent's columns as from rows.
func TestMapFloatValuesMatchesMapValues(t *testing.T) {
	ctx := NewContext(2)
	p := NewHashPartitioner(4)
	parent := ctx.Parallelize(nil, 1).PartitionBy(p)
	f := func(v float64) float64 { return 0.15 + 0.85*v }
	typed := parent.MapFloatValues(f)
	rowOp := parent.MapValues(func(v any) any { return f(v.(float64)) })
	if typed.Op != rowOp.Op || typed.CostFactor != rowOp.CostFactor || typed.Part != rowOp.Part || typed.Part != p {
		t.Fatalf("MapFloatValues is %s cost %v part %v; MapValues %s cost %v part %v", typed.Op, typed.CostFactor, typed.Part, rowOp.Op, rowOp.CostFactor, rowOp.Part)
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 50} {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Pair{K: rng.Intn(20) - 5, V: rng.NormFloat64()}
		}
		want := rowOp.Compute(0, [][]Row{rows})
		if got := typed.Compute(0, [][]Row{rows}); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%d rows: MapFloatValues computes %v, want %v", n, got, want)
		}
		var fromRows, fromCols ColBlock
		typed.Typed(0, [][]Row{rows}, &fromRows)
		typed.Typed(0, [][]Row{{ColPart(floatCols(rows))}}, &fromCols)
		if !reflect.DeepEqual(fromRows, fromCols) {
			t.Fatalf("%d rows: MapFloatValues fills %+v from rows, %+v from columns", n, fromRows, fromCols)
		}
	}
}

// TestMergeTypedColMatchesBoxedMerge: over reduce inputs of 0–8 map-side
// combined ColIntF64 blocks, MergeTypedRefs' block holds exactly the rows
// the boxed reference merge (mergeReduceBlocks), MergeReduceRefs and the
// adapter MergeReduceColN give, float64 bits included — values span 16
// orders of magnitude, so a sum folded in another order shows — and it
// reuses dst's capacity (TestWarmKernelsAllocateOnlyTheirOutput pins a warm
// call at nothing). It declines, leaving dst alone, a block of another kind
// and an aggregator without the unboxed map-side hooks.
func TestMergeTypedColMatchesBoxedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	agg := SumAggregator()
	var dst ColBlock
	for trial := 0; trial < 300; trial++ {
		blocks := make([]*ColBlock, rng.Intn(9))
		keys := 1 + rng.Intn(40)
		for i := range blocks {
			b := &ColBlock{Kind: ColIntF64}
			for _, k := range rng.Perm(keys)[:rng.Intn(keys+1)] {
				b.Int = append(b.Int, int64(k-keys/3))
				b.F64 = append(b.F64, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(16)-8)))
			}
			blocks[i] = b
		}
		refs := refsOf(blocks)
		if !pooled.MergeTypedRefs(refs, agg, &dst) {
			t.Fatalf("trial %d: MergeTypedRefs declined %d ColIntF64 blocks", trial, len(blocks))
		}
		boxed := make([][]Pair, len(blocks))
		for i, b := range blocks {
			boxed[i] = b.AppendPairs(nil)
		}
		want := mergeReduceBlocks(boxed, agg)
		got := dst.Rows()
		if len(got)+len(want) > 0 && !sameRows(got, want) {
			t.Fatalf("trial %d: MergeTypedRefs gives %v, the boxed merge %v", trial, got, want)
		}
		if rows := pooled.MergeReduceRefs(refs, agg); len(got)+len(rows) > 0 && !sameRows(got, rows) {
			t.Fatalf("trial %d: MergeTypedRefs gives %v, MergeReduceRefs %v", trial, got, rows)
		}
		if rows := mergeViews(blocks, agg); len(got)+len(rows) > 0 && !sameRows(got, rows) {
			t.Fatalf("trial %d: MergeTypedRefs gives %v, MergeReduceColN %v", trial, got, rows)
		}
	}
	before := dst
	mixed := refsOf([]*ColBlock{{Kind: ColIntF64, Int: []int64{1}, F64: []float64{1}}, {Kind: ColNone, Pairs: []Pair{{K: "a", V: 2.0}}}})
	if pooled.MergeTypedRefs(mixed, agg, &dst) || !reflect.DeepEqual(dst, before) {
		t.Fatal("MergeTypedRefs merged a boxed string-keyed block")
	}
	reduce := ReduceAggregator(func(a, b any) any { return a.(float64) + b.(float64) })
	if pooled.MergeTypedRefs(mixed[:1], reduce, &dst) || !reflect.DeepEqual(dst, before) {
		t.Fatal("MergeTypedRefs merged under an aggregator without F64 hooks")
	}
}
