package rdd

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestTypedColMatchesBoxedArena pins PartitionTypedCol's contract: for a
// ColIntF64 block under every partitioner and aggregator shape, the arena
// (or the boxed buckets, or the error) is exactly what PartitionPairsCol
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
				k *= 1 << 40 // wide keys hash and order too
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
				gotCols, gotBoxed, gotErr := PartitionTypedCol(blk, p, agg)
				wantCols, wantBoxed, wantErr := PartitionPairsCol(blk.boxed(), p, agg)
				if !reflect.DeepEqual(gotCols, wantCols) || !reflect.DeepEqual(gotBoxed, wantBoxed) || !reflect.DeepEqual(gotErr, wantErr) {
					t.Fatalf("trial %d %s/%d/%s, %d pairs: typed arena differs from the boxed rows'", trial, pn, reduce, an, n)
				}
			}
		}
	}
	// A scalar column is not pairs: the boxed call's error, unchanged.
	scalars := &ColBlock{Kind: ColF64, F64: []float64{1, 2}}
	if _, _, err := PartitionTypedCol(scalars, NewHashPartitioner(3), SumAggregator()); err == nil {
		t.Fatal("a ColF64 block shuffled without error")
	}
}

// TestTypedComputeMatchesBoxedOps: the Compute MapFloat and
// FlatMapFloatPairs derive from their typed compute returns exactly the
// rows MapCost and FlatMap return for the same closure, empty partitions
// included (MapCost gives an empty slice, FlatMap nil).
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
		gotFlat := src.FlatMapFloatPairs(func(r Row, emit func(int, float64)) {
			if p := r.(Pair); p.K.(int) != 0 {
				emit(p.K.(int), p.V.(float64))
				emit(-p.K.(int), 1)
			}
		}).Compute(0, [][]Row{in})
		wantFlat := src.FlatMap(func(r Row) []Row {
			if p := r.(Pair); p.K.(int) != 0 {
				return []Row{Pair{K: p.K.(int), V: p.V.(float64)}, Pair{K: -p.K.(int), V: 1.0}}
			}
			return nil
		}).Compute(0, [][]Row{in})
		if !reflect.DeepEqual(gotFlat, wantFlat) {
			t.Fatalf("FlatMapFloatPairs over %d rows: %v, want %v", n, gotFlat, wantFlat)
		}
	}
}
