// typed.go is the producer end of the columnar tier: the two narrow
// transforms whose rows exist only to be folded — MapFloat's float64
// scalars, which SumFloat adds, and FlatMapFloatPairs' int/float64 pairs,
// which SumByKey combines — compute their partitions as columns (a ColF64
// or ColIntF64 ColBlock). Their ordinary Compute is derived from that one
// typed compute by boxing what it emits, so the two materialisations of a
// user closure cannot diverge: an evaluator that wants rows (LocalRunner,
// a cache, a downstream narrow op) gets exactly the rows the columns hold,
// and one that only folds them (the engine's SumFloat result tasks and
// F64 map-side combines) never boxes a row.
package rdd

import "slices"

// TypedFn computes one partition of an RDD as columns into dst from the
// same inputs a ComputeFn receives (and under the same read-only contract).
// It overwrites dst's kind and columns, reusing their capacity: dst may
// come from a worker's scratch, emptied between tasks.
type TypedFn func(split int, inputs [][]Row, dst *ColBlock)

// typedChild is narrowChild for a transform computed by typed, whose
// Compute boxes the block typed fills.
func (r *RDD) typedChild(op string, cost float64, typed TypedFn) *RDD {
	child := r.narrowChild(op, cost, func(split int, in [][]Row) []Row {
		var blk ColBlock
		typed(split, in, &blk)
		return blk.boxed()
	})
	child.Typed = typed
	return child
}

// MapFloat is MapCost for a transform whose every row is a float64 — the
// same op name, cost factor, dependency and count — computed as one ColF64
// column: a SumFloat over it adds the column without boxing a row.
func (r *RDD) MapFloat(name string, cost float64, f func(Row) float64) *RDD {
	return r.typedChild(name, cost, func(_ int, in [][]Row, dst *ColBlock) {
		rows := in[0]
		vals := slices.Grow(dst.F64[:0], len(rows))[:len(rows)]
		for i, row := range rows {
			vals[i] = f(row)
		}
		*dst = ColBlock{Kind: ColF64, Int: dst.Int[:0], F64: vals}
	})
}

// FlatMapFloatPairs is FlatMap for a transform whose every output row is a
// Pair{K: int, V: float64}: f emits each pair through emit, in order, and
// the partition is one ColIntF64 block. A SumByKey over it folds the block
// straight into its map-side arena (PartitionTypedCol) without boxing a
// pair or a key.
func (r *RDD) FlatMapFloatPairs(f func(row Row, emit func(k int, v float64))) *RDD {
	return r.typedChild("flatMap", 1.2, func(_ int, in [][]Row, dst *ColBlock) {
		*dst = ColBlock{Kind: ColIntF64, Int: dst.Int[:0], F64: dst.F64[:0]}
		emit := func(k int, v float64) {
			dst.Int = append(dst.Int, int64(k))
			dst.F64 = append(dst.F64, v)
		}
		for _, row := range in[0] {
			f(row, emit)
		}
	})
}

// boxed boxes a typed producer's block into the rows its RDD's Compute
// returns: one float64 per value (ColF64), one Pair{int, float64} per pair
// (ColIntF64) — nil when there are none, as FlatMap gives.
func (c *ColBlock) boxed() []Row {
	switch c.Kind {
	case ColF64:
		out := make([]Row, len(c.F64))
		for i, v := range c.F64 {
			out[i] = v
		}
		return out
	case ColIntF64:
		if len(c.Int) == 0 {
			return nil
		}
		out := make([]Row, len(c.Int))
		for i, k := range c.Int {
			out[i] = Pair{K: int(k), V: c.F64[i]}
		}
		return out
	}
	panic("rdd: boxing a block no typed producer emits")
}

// colPart carries a partition an evaluator produced through its RDD's
// Typed compute to an action's closure, whose rows parameter JobRunner
// fixes: the closure receives it as the one row of its slice. It is
// unexported, so no user row can be mistaken for one.
type colPart struct{ blk *ColBlock }

// ColPart wraps blk as the single row under which an evaluator hands a
// typed partition to an action's closure. It allocates nothing.
func ColPart(blk *ColBlock) Row { return colPart{blk} }

// partCols returns the typed partition rows carry, nil for ordinary rows.
func partCols(rows []Row) *ColBlock {
	if len(rows) == 1 {
		if p, ok := rows[0].(colPart); ok {
			return p.blk
		}
	}
	return nil
}
