// typed.go is the producer end of the columnar tier: the transforms whose
// rows exist only to be folded compute their partitions as columns (a
// ColBlock) — MapFloat's float64 scalars, which SumFloat adds, and the
// int/float64 pairs SumByKey combines, which GenerateFloatPairs emits from
// a generator, MapFloatPairs and MapFloatValues from a typed parent's
// pairs, and JoinFlatMapFloatPairs from a join's matches, itself computed
// from a cogroup's groups as columns. The columns are int-keyed, as the
// shuffle's columnar tier is; a job with keys of any other type uses the
// row ops. Their ordinary Compute is derived from that one typed compute
// by boxing what it emits, so the two materialisations of a user closure
// cannot diverge: an evaluator that wants rows (LocalRunner, a cache, a
// range sample, a downstream row op) gets exactly the rows the columns
// hold, and one that only folds them (the engine's SumFloat result tasks
// and F64 map-side combines) never boxes a row — nor, along a chain of
// typed RDDs, a row in between.
package rdd

import (
	"slices"

	"chopper/internal/freelist"
)

// TypedFn computes one partition of an RDD as columns into dst from the
// same inputs a ComputeFn receives (and under the same read-only contract),
// except that an evaluator may hand an input over as columns, as the one
// ColPart row of that input's slice: a narrow parent's partition
// computed by the parent's Typed compute, or the reduce side of a shuffle
// under an aggregator that CombinesF64, merged by Scratch.MergeTypedRefs
// straight out of the map tasks' arenas. It overwrites dst's kind and
// columns, reusing their capacity: dst may come from a worker's scratch,
// emptied between tasks, and never aliases the input's columns.
type TypedFn func(split int, inputs [][]Row, dst *ColBlock)

// typedChild is narrowChild for a transform computed by typed.
func (r *RDD) typedChild(op string, cost float64, typed TypedFn) *RDD {
	child := r.narrowChild(op, cost, nil)
	child.setTyped(typed)
	return child
}

// setTyped gives r the typed compute and derives its Compute from it: the
// rows are the block typed fills, boxed.
func (r *RDD) setTyped(typed TypedFn) {
	r.Typed = typed
	r.Compute = func(split int, in [][]Row) []Row {
		var blk ColBlock
		typed(split, in, &blk)
		return blk.Rows()
	}
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
		return blk.Rows()
	})
	r.Typed = func(split int, _ [][]Row, dst *ColBlock) { fill(split, r.NumParts, dst) }
	return r
}

// MapFloatPairs is MapCost and Filter in one for int/float64 pairs: f maps
// each input pair to an output pair, or drops it by returning false, and
// the partition is one ColIntF64 block. Every input row must be a
// Pair{K: int, V: float64}. Over a typed parent (GenerateFloatPairs or
// another MapFloatPairs) the engine hands f the parent's columns, so a
// chain of these from a typed source to SumByKey's map-side combine never
// boxes a pair.
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

// MapFloatValues is MapValues for int/float64 pairs — the same op name,
// cost factor and dependency, and it keeps the partitioner — computed as
// one ColIntF64 block: f maps each value, keys unchanged. Every input row
// must be a Pair{K: int, V: float64}. Over a typed parent, or the reduce
// side of SumByKey, the engine hands f the input's columns, so the ranks
// of an iterative job go from the shuffle read to the next join without
// boxing a pair.
func (r *RDD) MapFloatValues(f func(float64) float64) *RDD {
	child := r.typedChild("mapValues", 0.8, func(_ int, in [][]Row, dst *ColBlock) {
		keys, vals := dst.Int[:0], dst.F64[:0]
		if src := partCols(in[0]); src != nil && src.Kind == ColIntF64 {
			keys = append(keys, src.Int...)
			vals = slices.Grow(vals, len(src.F64))
			for _, v := range src.F64 {
				vals = append(vals, f(v))
			}
		} else {
			rows := rowsOf(in[0])
			keys, vals = slices.Grow(keys, len(rows)), slices.Grow(vals, len(rows))
			for _, row := range rows {
				p := row.(Pair)
				keys = append(keys, int64(p.K.(int)))
				vals = append(vals, f(p.V.(float64)))
			}
		}
		*dst = ColBlock{Kind: ColIntF64, Int: keys, F64: vals}
	})
	child.Part = r.Part // keys unchanged: co-partitioning survives
	return child
}

// JoinFlatMapFloatPairs is Join(o, p).FlatMap for pair RDDs whose keys
// are ints and whose o side holds float64 values: the same three RDDs —
// cogroup, join and flatMap, with the same op names, cost factors,
// dependencies and partitioners — where f gets each match's key, r's
// value and o's value, left value major as Join emits them, and emits
// int/float64 pairs through emit, valid only during the call. The three
// compute their partitions as columns (a ColIntGroupAnyF64, a
// ColIntAnyF64 and a ColIntF64 block) and box them into exactly the rows
// CoGroup, Join and FlatMap return; with co-partitioned parents
// the engine carries a task's data from o's columns (a typed o) to the
// map-side combine without boxing a key, a group or a match.
func (r *RDD) JoinFlatMapFloatPairs(o *RDD, p Partitioner, f func(k int, left Row, right float64, emit func(int, float64))) *RDD {
	cg, narrow := r.coGroupOf(o, p)
	cg.setTyped(func(_ int, in [][]Row, dst *ColBlock) { groupIntAnyF64(in, narrow, dst) })
	joined := cg.typedChild("join", 1.2, func(_ int, in [][]Row, dst *ColBlock) { joinGroups(in[0], dst) })
	joined.Part = cg.Part
	return joined.typedChild("flatMap", 1.2, func(_ int, in [][]Row, dst *ColBlock) {
		sink := takeSink(dst)
		defer sink.release()
		if m := partCols(in[0]); m != nil && m.Kind == ColIntAnyF64 {
			for i, k := range m.Int {
				f(int(k), m.Any[i], m.F64[i], sink.emit)
			}
			return
		}
		for _, row := range rowsOf(in[0]) {
			p := row.(Pair)
			jv := p.V.(JoinedValue)
			f(p.K.(int), jv.Left, jv.Right.(float64), sink.emit)
		}
	})
}

// groupIntAnyF64 is coGroup's compute as a ColIntGroupAnyF64 block: the
// same groups in the same key order, each side's values in the same
// order. Every key must be an int and every value of the second input a
// float64. narrow[i] tells whether input i holds a co-partitioned
// parent's pairs, one value each — as rows or, from a typed parent, as
// ColIntF64 columns — or a shuffle's merged groups, one []any per key.
// One pass gives every distinct key a slot (the pooled kernel scratch's)
// and counts its values per side; each (slot, side) then gets the start
// of its run in key order, and a second pass writes every value at its
// run's cursor. A warm call allocates nothing but the boxes of a columnar
// left side's values.
func groupIntAnyF64(in [][]Row, narrow []bool, dst *ColBlock) {
	var cols [2]*ColBlock
	var rows [2][]Row
	total := 0
	for i := range cols {
		if c := partCols(in[i]); c != nil && c.Kind == ColIntF64 {
			cols[i] = c
			total += len(c.Int)
		} else {
			rows[i] = rowsOf(in[i])
			total += len(rows[i])
		}
	}
	s := takeScratch(total)
	defer s.release()
	// counted adds n values of key k's side i, giving k a slot first.
	counted := func(k int64, i int, n int32) {
		sl, ok := s.slotOf(k)
		if !ok {
			s.idx = append(s.idx, 0, 0)
		}
		s.buckets = append(s.buckets, sl)
		s.idx[2*int(sl)+i] += n
	}
	for i := range cols {
		if c := cols[i]; c != nil {
			for _, k := range c.Int {
				counted(k, i, 1)
			}
			continue
		}
		for _, row := range rows[i] {
			p := row.(Pair)
			n := int32(1)
			if !narrow[i] {
				n = int32(len(p.V.([]any)))
			}
			counted(int64(p.K.(int)), i, n)
		}
	}
	groups := len(s.ints)
	cursor := slices.Grow(dst.Offs[:0], 2*groups)[:2*groups]
	copy(cursor, s.idx) // the counts, by slot; sortedSlots takes s.idx
	s.idx = s.idx[:0]
	order := sortedSlots(s, s.ints)
	var nl, nr int32
	for _, sl := range order {
		cl, cr := cursor[2*sl], cursor[2*sl+1]
		cursor[2*sl], cursor[2*sl+1] = nl, nr
		nl, nr = nl+cl, nr+cr
	}
	left := slices.Grow(dst.Any[:0], int(nl))[:nl]
	right := slices.Grow(dst.F64[:0], int(nr))[:nr]
	put := func(at *int32, i int, v any) {
		if i == 0 {
			left[*at] = v
		} else {
			right[*at] = v.(float64)
		}
		*at++
	}
	slots := s.buckets
	for i := range cols {
		if c := cols[i]; c != nil {
			for j, v := range c.F64 {
				at := &cursor[2*slots[j]+int32(i)]
				if i == 0 {
					left[*at] = v
				} else {
					right[*at] = v
				}
				*at++
			}
			slots = slots[len(c.F64):]
			continue
		}
		for j, row := range rows[i] {
			at, v := &cursor[2*slots[j]+int32(i)], row.(Pair).V
			if narrow[i] {
				put(at, i, v)
				continue
			}
			for _, x := range v.([]any) {
				put(at, i, x)
			}
		}
		slots = slots[len(rows[i]):]
	}
	// The cursors now end their runs; list the ends in key order.
	keys := slices.Grow(dst.Int[:0], groups)[:groups]
	for g, sl := range order {
		keys[g] = s.ints[sl]
		s.idx = append(s.idx, cursor[2*sl], cursor[2*sl+1])
	}
	copy(cursor, s.idx[groups:])
	*dst = ColBlock{Kind: ColIntGroupAnyF64, Int: keys, Offs: cursor, Any: left, F64: right}
}

// joinGroups is Join's compute as a ColIntAnyF64 block: for every group
// of the cogroup's partition, in key order, each left value with each
// right value, left value major. The input is the cogroup's
// ColIntGroupAnyF64 block or its rows.
func joinGroups(in []Row, dst *ColBlock) {
	keys, left, right := dst.Int[:0], dst.Any[:0], dst.F64[:0]
	if g := partCols(in); g != nil && g.Kind == ColIntGroupAnyF64 {
		n := 0
		for i := range g.Int {
			l, r := g.group(i)
			n += len(l) * len(r)
		}
		keys, left, right = slices.Grow(keys, n), slices.Grow(left, n), slices.Grow(right, n)
		for i, k := range g.Int {
			l, r := g.group(i)
			for _, lv := range l {
				for _, rv := range r {
					keys, left, right = append(keys, k), append(left, lv), append(right, rv)
				}
			}
		}
	} else {
		for _, row := range rowsOf(in) {
			p := row.(Pair)
			sides := p.V.([][]any)
			for _, lv := range sides[0] {
				for _, rv := range sides[1] {
					keys, left, right = append(keys, int64(p.K.(int))), append(left, lv), append(right, rv.(float64))
				}
			}
		}
	}
	*dst = ColBlock{Kind: ColIntAnyF64, Int: keys, Any: left, F64: right}
}

// group returns the left and right runs of group g of a
// ColIntGroupAnyF64 block.
func (c *ColBlock) group(g int) ([]any, []float64) {
	var lo, ro int32
	if g > 0 {
		lo, ro = c.Offs[2*g-2], c.Offs[2*g-1]
	}
	return c.Any[lo:c.Offs[2*g]], c.F64[ro:c.Offs[2*g+1]]
}

// rowsOf returns a typed compute's input as rows: in itself, or, when the
// evaluator handed over the parent's columns, those columns boxed.
func rowsOf(in []Row) []Row {
	if blk := partCols(in); blk != nil {
		return blk.Rows()
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
// boxes into, bit for bit and without boxing them: every row of these
// kinds scales with the input, and the sizes are summed row by row in the
// same order. A row's size is RowBytes of its boxed form: 8 for a float64,
// 24 for a Pair{int, float64} (key, value and header), 88 plus RowBytes of
// the left values and 8 per right value for a cogroup's Pair{int,
// [][]any} (key and header, then 24 for the outer header and for each
// side's), and 32 plus RowBytes of the left value for a join's Pair{int,
// JoinedValue} (key and header, then the right value and JoinedValue's
// header).
func (c *ColBlock) LogicalBytes(scale float64) float64 {
	total := 0.0
	switch c.Kind {
	case ColF64, ColIntF64:
		row := 8.0
		if c.Kind == ColIntF64 {
			row = 24
		}
		row *= scale
		for range c.Len() {
			total += row
		}
	case ColIntGroupAnyF64:
		for g := range c.Int {
			left, right := c.group(g)
			b := int64(88 + 8*len(right))
			for _, v := range left {
				b += RowBytes(v)
			}
			total += float64(b) * scale
		}
	case ColIntAnyF64:
		for _, v := range c.Any {
			total += float64(RowBytes(v)+32) * scale
		}
	default:
		panic("rdd: sizing a block no typed producer emits")
	}
	return total
}

// Rows boxes a typed producer's block into the rows its RDD's Compute
// returns, for an evaluator that holds a partition as columns and wants
// rows: one float64 per value (ColF64); one Pair{int, float64} per pair
// (ColIntF64) and one Pair{int, JoinedValue} per match (ColIntAnyF64), nil
// when there are none, as FlatMap and Join give; one Pair{int, [][]any}
// per group (ColIntGroupAnyF64), laid out as coGroup lays out its groups:
// the side pairs are windows of one [][]any slab, the values of one []any
// slab, a side without values nil.
func (c *ColBlock) Rows() []Row {
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
	case ColIntAnyF64:
		if len(c.Int) == 0 {
			return nil
		}
		out := make([]Row, len(c.Int))
		for i, k := range c.Int {
			out[i] = Pair{K: int(k), V: JoinedValue{Left: c.Any[i], Right: c.F64[i]}}
		}
		return out
	case ColIntGroupAnyF64:
		out := make([]Row, len(c.Int))
		sides := make([][]any, 2*len(c.Int))
		var slab []any
		if n := len(c.Any) + len(c.F64); n > 0 {
			slab = make([]any, 0, n)
		}
		for g, k := range c.Int {
			left, right := c.group(g)
			if len(left) > 0 {
				at := len(slab)
				slab = append(slab, left...)
				sides[2*g] = slab[at:len(slab):len(slab)]
			}
			if len(right) > 0 {
				at := len(slab)
				for _, v := range right {
					slab = append(slab, v)
				}
				sides[2*g+1] = slab[at:len(slab):len(slab)]
			}
			out[g] = Pair{K: int(k), V: sides[2*g : 2*g+2 : 2*g+2]}
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
