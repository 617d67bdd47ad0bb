package exec

import (
	"fmt"
	"slices"

	"chopper/internal/rdd"
	"chopper/internal/shuffle"
	"chopper/internal/storage"
)

// acct accumulates the node-agnostic cost quantities of one task while its
// partition is materialized. A compute worker reuses one across its tasks
// (release empties it in between); a zero acct serves a one-off evaluation.
type acct struct {
	srcBytes int64               // logical bytes read from generator sources
	srcNodes []string            // preferred locations of those reads (read-only)
	cacheBy  []shuffle.NodeBytes // cached-input logical bytes by holding node, sorted by node
	shufBy   []shuffle.NodeBytes // shuffle-input logical bytes by map node, sorted by node (read-only)
	cost     float64             // logical-byte cost units (bytes x op factor)
	pending  []pendingCache      // partitions to cache after placement (copied to the task)
	// memo holds the partitions this task has materialized, scanned
	// linearly: a stage pipeline is a handful of RDDs deep.
	memo []memoEntry
	// ins is a stack of Compute input windows: each materialize call
	// reserves one slot per dependency above its parents' windows.
	ins [][]rdd.Row
	// col receives the columns of a map task's typed Final, folded into the
	// map output before the task ends; its capacity carries over.
	col rdd.ColBlock
}

type memoEntry struct {
	rdd, split int
	rows       []rdd.Row
	bytes      float64
}

// release resets a worker's scratch for its next task, dropping every row
// it referenced; the task keeps its profiles and its copy of the pending
// list. A function, not a method: only the worker holding a touches it.
func release(a *acct) {
	clear(a.memo)
	clear(a.ins[:cap(a.ins)])
	clear(a.pending)
	*a = acct{memo: a.memo[:0], ins: a.ins[:0], pending: a.pending[:0],
		col: rdd.ColBlock{Int: a.col.Int[:0], F64: a.col.F64[:0]}}
}

// materialize computes one partition of r, charging work to a. It returns
// the rows and their logical byte size.
func (e *Engine) materialize(r *rdd.RDD, split int, a *acct) ([]rdd.Row, float64, error) {
	for i := range a.memo {
		if m := &a.memo[i]; m.rdd == r.ID && m.split == split {
			return m.rows, m.bytes, nil
		}
	}
	scale := e.Ctx.LogicalScale

	// Cached partition available from an earlier stage?
	if r.Cached {
		if entry, ok := e.Cache.Peek(storage.CacheKey{RDD: r.ID, Split: split, Of: r.NumParts}); ok {
			a.cacheBy = mergeProfiles(a.cacheBy, []shuffle.NodeBytes{{Node: entry.Node, Bytes: entry.Bytes}})
			bytes := float64(entry.Bytes)
			a.memo = append(a.memo, memoEntry{rdd: r.ID, split: split, rows: entry.Rows, bytes: bytes})
			return entry.Rows, bytes, nil
		}
	}

	inputs, err := e.gather(r, split, a)
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
// into dst, charging work to a exactly as materialize does; the columns
// are neither memoised nor cached (r is its stage's un-cached Final).
func (e *Engine) materializeTyped(r *rdd.RDD, split int, a *acct, dst *rdd.ColBlock) error {
	inputs, err := e.gather(r, split, a)
	if err != nil {
		return err
	}
	r.Typed(split, inputs, dst)
	a.ins = a.ins[:len(a.ins)-len(inputs)] // pop the window
	return nil
}

// gather materializes the inputs of one partition of r and charges its
// compute cost to a: for a source, the split's logical share of the input
// file (and no inputs); otherwise a window of the input stack holding one
// slot per dependency, which the caller pops after computing.
func (e *Engine) gather(r *rdd.RDD, split int, a *acct) ([][]rdd.Row, error) {
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
			one := [1]int{split}
			splits := one[:]
			if !dep.IsOneToOne() {
				splits = dep.Splits(split)
			}
			var rows []rdd.Row
			for _, ps := range splits {
				pr, pb, err := e.materialize(dep.P, ps, a)
				if err != nil {
					return nil, err
				}
				if len(splits) == 1 {
					// One parent split: hand over its rows, which may be
					// memoised or cached, without a copy. The cap clamp
					// makes an append in the ComputeFn reallocate instead
					// of writing into the shared backing array.
					rows = pr[:len(pr):len(pr)]
				} else {
					rows = append(rows, pr...)
				}
				inBytes += pb
			}
			a.ins[base+i] = rows
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

// shuffleRead fetches and merges the reduce input of dep for one partition.
// The view holds the partition's non-empty blocks only; reading before the
// map side finished panics inside the manager.
func (e *Engine) shuffleRead(dep *rdd.ShuffleDep, reduce int, a *acct) ([]rdd.Row, float64) {
	view := e.Shuffle.ReduceInput(dep.ShuffleID, reduce)
	a.shufBy = mergeProfiles(a.shufBy, view.NodeBytes())
	rows := rdd.MergeReduceColN(view.Len(), view.BlockInto, dep.Agg)
	return rows, rdd.LogicalRowsBytes(rows, e.Ctx.LogicalScale)
}

// mergeProfiles returns the union of two locality profiles, both sorted by
// node, with the bytes of a node present in both summed. Neither input is
// written: an empty side yields the other as is (so a task reading one
// shuffle adopts the index's read-only row), and a merge is one fresh
// slice of exactly the union's length.
func mergeProfiles(x, y []shuffle.NodeBytes) []shuffle.NodeBytes {
	if len(x) == 0 {
		return y
	}
	if len(y) == 0 {
		return x
	}
	var buf [16]shuffle.NodeBytes
	out := buf[:0]
	for len(x) > 0 || len(y) > 0 {
		var nb shuffle.NodeBytes
		switch {
		case len(y) == 0 || len(x) > 0 && x[0].Node < y[0].Node:
			nb, x = x[0], x[1:]
		case len(x) == 0 || y[0].Node < x[0].Node:
			nb, y = y[0], y[1:]
		default:
			nb = shuffle.NodeBytes{Node: x[0].Node, Bytes: x[0].Bytes + y[0].Bytes}
			x, y = x[1:], y[1:]
		}
		out = append(out, nb)
	}
	return slices.Clone(out)
}
