package exec

import (
	"fmt"
	"slices"
	"strings"

	"chopper/internal/rdd"
	"chopper/internal/shuffle"
	"chopper/internal/storage"
)

// acct accumulates the node-agnostic cost quantities of one task while its
// partition is materialized. A compute worker reuses one across its tasks
// (release empties it in between); a zero acct serves a one-off evaluation.
type acct struct {
	// kern is the worker's own kernel scratch, which the task's shuffle
	// reads and its map-side write run on; nil (a zero acct) takes the
	// kernels' shared pools. release keeps it.
	kern     *rdd.Scratch
	srcBytes int64               // logical bytes read from generator sources
	srcNodes []string            // preferred locations of those reads (read-only)
	cacheBy  []shuffle.NodeBytes // cached-input logical bytes by holding node, sorted by node
	shufBy   []shuffle.NodeBytes // shuffle-input logical bytes by map node, sorted by node (read-only)
	cost     float64             // logical-byte cost units (bytes x op factor)
	pending  []pendingCache      // partitions to cache after placement (copied to the task)
	// cacheBuf and shufBuf hold cacheBy and shufBy where this task built
	// them instead of adopting a read-only index row: a cached read's
	// entries, a merge of two shuffles' rows. The task copies them out
	// (keepProfile) before release.
	cacheBuf, shufBuf [profileCap]shuffle.NodeBytes
	// memo holds the partitions this task has materialized, scanned
	// linearly: a stage pipeline is a handful of RDDs deep.
	memo []memoEntry
	// ins is a stack of Compute input windows: each materialize call
	// reserves one slot per dependency above its parents' windows.
	ins [][]rdd.Row
	// col receives the columns of a map task's typed Final, folded into the
	// map output before the task ends; its capacity carries over.
	col rdd.ColBlock
	// parents holds the columns of the inputs pullCols hands over, one per
	// pull in the task (the first nparents in use); blocks and their
	// capacity carry over between tasks.
	parents  []*typedParent
	nparents int
}

// typedParent is one input's partition as a typed child's compute
// receives it: the block, as the one ColPart row of its input slice.
type typedParent struct {
	blk rdd.ColBlock
	row [1]rdd.Row
}

// memoEntry is a partition the task has materialized: its rows, or, when
// pullCols handed it over as columns, its block (rows nil until a reader
// wants them).
type memoEntry struct {
	rdd, split int
	rows       []rdd.Row
	col        *typedParent
	bytes      float64
}

// release resets a worker's scratch for its next task, dropping every row
// it referenced; the task keeps its profiles and its copy of the pending
// list. A function, not a method: only the worker holding a touches it.
func release(a *acct) {
	clear(a.memo)
	clear(a.ins[:cap(a.ins)])
	clear(a.pending)
	for _, p := range a.parents[:a.nparents] {
		b := &p.blk
		clear(b.Any)
		*p = typedParent{blk: rdd.ColBlock{Int: b.Int[:0], Offs: b.Offs[:0], F64: b.F64[:0], Any: b.Any[:0]}}
	}
	*a = acct{kern: a.kern, memo: a.memo[:0], ins: a.ins[:0], pending: a.pending[:0],
		col:     rdd.ColBlock{Int: a.col.Int[:0], F64: a.col.F64[:0]},
		parents: a.parents}
}

// materialize computes one partition of r, charging work to a. It returns
// the rows and their logical byte size.
func (e *Engine) materialize(r *rdd.RDD, split int, a *acct) ([]rdd.Row, float64, error) {
	for i := range a.memo {
		if m := &a.memo[i]; m.rdd == r.ID && m.split == split {
			if m.rows == nil && m.col != nil {
				// Pulled as columns for a typed reader earlier in the
				// task and charged then: the block holds exactly the
				// rows Compute or the shuffle read would give (none
				// box to nil, not to an empty slice).
				m.rows = m.col.blk.Rows()
			}
			return m.rows, m.bytes, nil
		}
	}
	scale := e.Ctx.LogicalScale

	// Cached partition available from an earlier stage?
	if r.Cached {
		if entry, ok := e.Cache.Peek(storage.CacheKey{RDD: r.ID, Split: split, Of: r.NumParts}); ok {
			a.cacheBy = addNodeBytes(&a.cacheBuf, a.cacheBy, entry.Node, entry.Bytes)
			bytes := float64(entry.Bytes)
			a.memo = append(a.memo, memoEntry{rdd: r.ID, split: split, rows: entry.Rows, bytes: bytes})
			return entry.Rows, bytes, nil
		}
	}

	inputs, err := e.gather(r, split, a, false)
	if err != nil {
		return nil, 0, err
	}
	rows := r.Compute(split, inputs)
	a.ins = a.ins[:len(a.ins)-len(inputs)] // pop the window
	outBytes := rdd.LogicalRowsBytes(rows, scale)

	if r.Cached {
		a.pending = append(a.pending, pendingCache{
			key:   storage.CacheKey{RDD: r.ID, Split: split, Of: r.NumParts},
			bytes: int64(outBytes),
			rows:  rows,
			part:  r.Part,
		})
	}
	a.memo = append(a.memo, memoEntry{rdd: r.ID, split: split, rows: rows, bytes: outBytes})
	return rows, outBytes, nil
}

// materializeTyped computes one partition of r through its Typed compute
// into dst, charging work to a exactly as materialize does, and returns
// the block's logical byte size; the columns are neither memoised nor
// cached (r is its stage's un-cached Final, or pulled by pullCols, which
// memoises them). gather hands r each input as columns where the producer
// can give them.
func (e *Engine) materializeTyped(r *rdd.RDD, split int, a *acct, dst *rdd.ColBlock) (float64, error) {
	inputs, err := e.gather(r, split, a, true)
	if err != nil {
		return 0, err
	}
	r.Typed(split, inputs, dst)
	a.ins = a.ins[:len(a.ins)-len(inputs)] // pop the window
	return dst.LogicalBytes(e.Ctx.LogicalScale), nil
}

// pullCols hands p, a narrow parent of a typed RDD, over as the one
// ColPart row of a block of the worker's scratch, with its logical byte
// size, when p can give columns: p has a Typed compute and nothing caches
// it, or p is the reduce side of a shuffle under an aggregator that
// CombinesF64 (SumByKey) — p's partition is its merged input, unchanged —
// whose blocks are all ColIntF64. Either way p is charged exactly as
// materialize charges it. ok is false when p gives rows instead — also
// when this task already materialized p's rows — and nothing is charged.
func (e *Engine) pullCols(p *rdd.RDD, split int, a *acct) (in []rdd.Row, bytes float64, ok bool, err error) {
	var sum *rdd.ShuffleDep
	if p.Cached {
		return nil, 0, false, nil
	}
	if p.Typed == nil {
		if sum = sumShuffle(p); sum == nil {
			return nil, 0, false, nil
		}
	}
	for i := range a.memo {
		if m := &a.memo[i]; m.rdd == p.ID && m.split == split {
			if m.col == nil {
				return nil, 0, false, nil
			}
			return m.col.row[:], m.bytes, true, nil
		}
	}
	if a.nparents == len(a.parents) {
		a.parents = append(a.parents, new(typedParent))
	}
	slot := a.parents[a.nparents]
	a.nparents++ // taken before p's own pulls
	if sum != nil {
		view := e.Shuffle.ReduceInput(sum.ShuffleID, split)
		if !a.kern.MergeTypedRefs(view.Refs(), sum.Agg, &slot.blk) {
			a.nparents-- // untouched: nothing pulled since
			return nil, 0, false, nil
		}
		a.shufBy = mergeProfiles(&a.shufBuf, a.shufBy, view.NodeBytes())
		bytes = slot.blk.LogicalBytes(e.Ctx.LogicalScale)
		a.cost += bytes * p.CostFactor // gather's charge for p's shuffle input
	} else if bytes, err = e.materializeTyped(p, split, a, &slot.blk); err != nil {
		return nil, 0, false, err
	}
	a.memo = append(a.memo, memoEntry{rdd: p.ID, split: split, col: slot, bytes: bytes})
	slot.row[0] = rdd.ColPart(&slot.blk)
	return slot.row[:], bytes, true, nil
}

// sumShuffle returns the shuffle p is the reduce side of when its
// aggregator CombinesF64, nil otherwise. Every RDD whose one dependency
// is a ShuffleDep is such a reduce side: its partition is the merged
// reduce input, unchanged.
func sumShuffle(p *rdd.RDD) *rdd.ShuffleDep {
	if len(p.Deps) != 1 {
		return nil
	}
	sd, ok := p.Deps[0].(*rdd.ShuffleDep)
	if !ok || !sd.Agg.CombinesF64() {
		return nil
	}
	return sd
}

// gather materializes the inputs of one partition of r and charges its
// compute cost to a: for a source, the split's logical share of the input
// file (and no inputs); otherwise a window of the input stack holding one
// slot per dependency, which the caller pops after computing. For a typed
// r (cols), a narrow parent that can give columns is pulled as columns
// (see pullCols); every other input arrives as rows.
func (e *Engine) gather(r *rdd.RDD, split int, a *acct, cols bool) ([][]rdd.Row, error) {
	if len(r.Deps) == 0 {
		file := e.ensureSource(r)
		sb, locs := e.Blocks.Split(file, split, r.NumParts)
		a.srcBytes += sb
		if len(locs) > 0 && len(a.srcNodes) == 0 {
			a.srcNodes = locs
		}
		a.cost += float64(sb) * r.CostFactor
		return nil, nil
	}
	// Reserve this RDD's window (every slot is filled before Compute reads
	// it); a parent's recursion may grow, and so move, the stack, so slots
	// are filled by offset.
	var inBytes float64
	base, n := len(a.ins), len(r.Deps)
	a.ins = slices.Grow(a.ins, n)[:base+n]
	for i, d := range r.Deps {
		switch dep := d.(type) {
		case *rdd.NarrowDep:
			if cols {
				in, pb, ok, err := e.pullCols(dep.P, split, a)
				if err != nil {
					return nil, err
				}
				if ok {
					a.ins[base+i] = in
					inBytes += pb
					continue
				}
			}
			pr, pb, err := e.materialize(dep.P, split, a)
			if err != nil {
				return nil, err
			}
			// Hand over the parent's rows, which may be memoised or
			// cached, without a copy. The cap clamp makes an append in
			// the ComputeFn reallocate instead of writing into the shared
			// backing array.
			a.ins[base+i] = pr[:len(pr):len(pr)]
			inBytes += pb
		case *rdd.ShuffleDep:
			rows, rb := e.shuffleRead(dep, split, a)
			a.ins[base+i] = rows
			inBytes += rb
		default:
			return nil, fmt.Errorf("exec: unknown dependency %T", d)
		}
	}
	a.cost += inBytes * r.CostFactor
	return a.ins[base : base+n : base+n], nil
}

// shuffleRead fetches and merges the reduce input of dep for one partition:
// the kernel reads the view's non-empty blocks by reference, in place in
// the map tasks' arenas. Reading before the map side finished panics
// inside the manager.
func (e *Engine) shuffleRead(dep *rdd.ShuffleDep, reduce int, a *acct) ([]rdd.Row, float64) {
	view := e.Shuffle.ReduceInput(dep.ShuffleID, reduce)
	a.shufBy = mergeProfiles(&a.shufBuf, a.shufBy, view.NodeBytes())
	rows := a.kern.MergeReduceRefs(view.Refs(), dep.Agg)
	return rows, rdd.LogicalRowsBytes(rows, e.Ctx.LogicalScale)
}

// profileCap is the number of nodes a worker's locality profiles hold
// without a heap slice, and a task's two together: more than the worker
// count of the clusters here.
const profileCap = 6

// mergeProfiles returns the union of two locality profiles, both sorted by
// node, with the bytes of a node present in both summed. Neither input is
// written: an empty side yields the other as is (so a task reading one
// shuffle adopts the index's read-only row), and a merge is written to
// buf, which x may be held in, or to a fresh slice when it outgrows buf.
func mergeProfiles(buf *[profileCap]shuffle.NodeBytes, x, y []shuffle.NodeBytes) []shuffle.NodeBytes {
	if len(x) == 0 {
		return y
	}
	if len(y) == 0 {
		return x
	}
	// The merge overwrites buf, so a profile held there is read from a
	// copy, through xs: x may be returned above, and held with it would
	// move to the heap.
	var held [profileCap]shuffle.NodeBytes
	xs := x
	if &x[0] == &buf[0] {
		xs = held[:copy(held[:], x)]
	}
	out := buf[:0]
	for len(xs) > 0 || len(y) > 0 {
		var nb shuffle.NodeBytes
		switch {
		case len(y) == 0 || len(xs) > 0 && xs[0].Node < y[0].Node:
			nb, xs = xs[0], xs[1:]
		case len(xs) == 0 || y[0].Node < xs[0].Node:
			nb, y = y[0], y[1:]
		default:
			nb = shuffle.NodeBytes{Node: xs[0].Node, Bytes: xs[0].Bytes + y[0].Bytes}
			xs, y = xs[1:], y[1:]
		}
		out = append(out, nb)
	}
	return out
}

// addNodeBytes returns by, a profile sorted by node that is empty or the
// worker's own (held in buf, or a fresh slice that outgrew it), with bytes
// added on node: the profile mergeProfiles makes of by and that one entry.
func addNodeBytes(buf *[profileCap]shuffle.NodeBytes, by []shuffle.NodeBytes, node string, bytes int64) []shuffle.NodeBytes {
	if len(by) == 0 {
		by = buf[:0]
	}
	i, found := slices.BinarySearchFunc(by, node, func(nb shuffle.NodeBytes, n string) int { return strings.Compare(nb.Node, n) })
	if found {
		by[i].Bytes += bytes
		return by
	}
	return slices.Insert(by, i, shuffle.NodeBytes{Node: node, Bytes: bytes})
}

// keepProfile returns the task's copy of by, a profile its worker built:
// by itself unless it is held in buf, the worker's scratch, which release
// hands to the next task; then a copy at the front of dst, the rest of the
// task's own array, or on the heap when it does not fit. rest is dst past
// the copy.
func keepProfile(by []shuffle.NodeBytes, buf *[profileCap]shuffle.NodeBytes, dst []shuffle.NodeBytes) (kept, rest []shuffle.NodeBytes) {
	if len(by) == 0 || &by[0] != &buf[0] {
		return by, dst
	}
	if len(by) > len(dst) {
		return slices.Clone(by), dst
	}
	n := copy(dst, by)
	return dst[:n:n], dst[n:]
}
