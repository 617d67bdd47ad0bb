// typed.go is the producer end of the columnar tier: the transforms whose
// rows exist only to be folded compute their partitions as columns (a
// ColF64 or ColIntF64 ColBlock) — MapFloat's float64 scalars, which
// SumFloat adds, and the int/float64 pairs SumByKey combines, which
// FlatMapFloatPairs emits from rows, GenerateFloatPairs from a generator
// and MapFloatPairs from a typed parent's pairs. Their ordinary Compute is
// derived from that one typed compute by boxing what it emits, so the two
// materialisations of a user closure cannot diverge: an evaluator that
// wants rows (LocalRunner, a cache, a range sample, a downstream row op)
// gets exactly the rows the columns hold, and one that only folds them
// (the engine's SumFloat result tasks and F64 map-side combines) never
// boxes a row — nor, along a chain of typed RDDs, a row in between.
package rdd

import (
	"slices"

	"chopper/internal/freelist"
)

// TypedFn computes one partition of an RDD as columns into dst from the
// same inputs a ComputeFn receives (and under the same read-only contract),
// except that an evaluator may hand over a one-to-one parent that has a
// Typed compute as that parent's columns: inputs[0] is then one ColPart
// row. It overwrites dst's kind and columns, reusing their capacity: dst
// may come from a worker's scratch, emptied between tasks, and never
// aliases the input's columns.
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
		rows := rowsOf(in[0])
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
// pair or a key. emit is valid only during the call to f.
func (r *RDD) FlatMapFloatPairs(f func(row Row, emit func(k int, v float64))) *RDD {
	return r.typedChild("flatMap", 1.2, func(_ int, in [][]Row, dst *ColBlock) {
		sink := takeSink(dst)
		defer sink.release()
		for _, row := range rowsOf(in[0]) {
			f(row, sink.emit)
		}
	})
}

// GenerateFloatPairs is Generate for a source whose every row is a
// Pair{K: int, V: float64} — the same op name, count, size and tunability,
// and still a Gen source to the scheduler — computed as one ColIntF64
// block: gen emits split's pairs through emit, in order, and emit is valid
// only during the call. Gen and Compute box what gen emits.
func (c *Context) GenerateFloatPairs(name string, n int, logicalBytes int64, gen func(split, numSplits int, emit func(k int, v float64))) *RDD {
	fill := func(split, numSplits int, dst *ColBlock) {
		sink := takeSink(dst)
		defer sink.release()
		gen(split, numSplits, sink.emit)
	}
	r := c.Generate(name, n, logicalBytes, func(split, numSplits int) []Row {
		var blk ColBlock
		fill(split, numSplits, &blk)
		return blk.boxed()
	})
	r.Typed = func(split int, _ [][]Row, dst *ColBlock) { fill(split, r.NumParts, dst) }
	return r
}

// MapFloatPairs is MapCost and Filter in one for int/float64 pairs: f maps
// each input pair to an output pair, or drops it by returning false, and
// the partition is one ColIntF64 block. Every input row must be a
// Pair{K: int, V: float64}. Over a typed parent (GenerateFloatPairs,
// FlatMapFloatPairs or another MapFloatPairs) the engine hands f the
// parent's columns, so a chain of these from a typed source to SumByKey's
// map-side combine never boxes a pair.
func (r *RDD) MapFloatPairs(name string, cost float64, f func(k int, v float64) (int, float64, bool)) *RDD {
	return r.typedChild(name, cost, func(_ int, in [][]Row, dst *ColBlock) {
		keys, vals := dst.Int[:0], dst.F64[:0]
		keep := func(k int, v float64) {
			if k, v, ok := f(k, v); ok {
				keys = append(keys, int64(k))
				vals = append(vals, v)
			}
		}
		if src := partCols(in[0]); src != nil && src.Kind == ColIntF64 {
			keys, vals = slices.Grow(keys, len(src.Int)), slices.Grow(vals, len(src.Int))
			for i, k := range src.Int {
				keep(int(k), src.F64[i])
			}
		} else {
			rows := rowsOf(in[0])
			keys, vals = slices.Grow(keys, len(rows)), slices.Grow(vals, len(rows))
			for _, row := range rows {
				p := row.(Pair)
				keep(p.K.(int), p.V.(float64))
			}
		}
		*dst = ColBlock{Kind: ColIntF64, Int: keys, F64: vals}
	})
}

// rowsOf returns a typed compute's input as rows: in itself, or, when the
// evaluator handed over the parent's columns, those columns boxed.
func rowsOf(in []Row) []Row {
	if blk := partCols(in); blk != nil {
		return blk.boxed()
	}
	return in
}

// pairSink appends emitted int/float64 pairs to a ColIntF64 block. Its
// emit func is made once per sink and sinks are pooled, so handing emit to
// a user closure allocates nothing on a warm process.
type pairSink struct {
	dst  *ColBlock
	emit func(k int, v float64)
}

var pairSinks freelist.List[*pairSink]

// takeSink empties dst into a ColIntF64 block, keeping its capacity, and
// returns a sink appending to it.
func takeSink(dst *ColBlock) *pairSink {
	*dst = ColBlock{Kind: ColIntF64, Int: dst.Int[:0], F64: dst.F64[:0]}
	s := pairSinks.Get()
	if s == nil {
		s = new(pairSink)
		s.emit = func(k int, v float64) {
			s.dst.Int = append(s.dst.Int, int64(k))
			s.dst.F64 = append(s.dst.F64, v)
		}
	}
	s.dst = dst
	return s
}

// release drops the sink's block and pools it.
func (s *pairSink) release() {
	s.dst = nil
	pairSinks.Put(s)
}

// LogicalBytes is LogicalRowsBytes of the rows a typed producer's block
// boxes into, bit for bit and without boxing them: every row of a kind has
// the same size — 24 bytes for a Pair{int, float64}, 8 for a float64 —
// and scales with the input, and the sizes are summed row by row in the
// same order.
func (c *ColBlock) LogicalBytes(scale float64) float64 {
	var row float64
	switch c.Kind {
	case ColF64:
		row = 8 // RowBytes of a float64
	case ColIntF64:
		row = 24 // PairBytes of a Pair{int, float64}: key, value and header
	default:
		panic("rdd: sizing a block no typed producer emits")
	}
	row *= scale
	total := 0.0
	for range c.Len() {
		total += row
	}
	return total
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
