package exec

import (
	"fmt"

	"chopper/internal/rdd"
	"chopper/internal/shuffle"
	"chopper/internal/storage"
)

// acct accumulates the node-agnostic cost quantities of one task while its
// partition is materialized.
type acct struct {
	srcBytes int64               // logical bytes read from generator sources
	srcNodes []string            // preferred locations of those reads
	cacheBy  []shuffle.NodeBytes // cached-input logical bytes by holding node, sorted by node
	shufBy   []shuffle.NodeBytes // shuffle-input logical bytes by map node, sorted by node
	cost     float64             // logical-byte cost units (bytes x op factor)
	pending  []pendingCache      // partitions to cache after placement
	// memo holds the partitions this task has materialized, scanned
	// linearly: a stage pipeline is a handful of RDDs deep.
	memo []memoEntry
}

type memoEntry struct {
	rdd, split int
	rows       []rdd.Row
	bytes      float64
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
			a.cacheBy = addNode(a.cacheBy, entry.Node, entry.Bytes)
			bytes := float64(entry.Bytes)
			a.memo = append(a.memo, memoEntry{rdd: r.ID, split: split, rows: entry.Rows, bytes: bytes})
			return entry.Rows, bytes, nil
		}
	}

	var inputs [][]rdd.Row
	var inBytes float64
	switch {
	case len(r.Deps) == 0:
		// Source: charge the split's logical share of the input file.
		file := e.ensureSource(r)
		sb, locs := e.Blocks.Split(file, split, r.NumParts)
		a.srcBytes += sb
		if len(locs) > 0 && len(a.srcNodes) == 0 {
			a.srcNodes = locs
		}
		inBytes = float64(sb)
	default:
		inputs = make([][]rdd.Row, len(r.Deps))
		for i, d := range r.Deps {
			switch dep := d.(type) {
			case *rdd.NarrowDep:
				splits := dep.Splits(split)
				var rows []rdd.Row
				for _, ps := range splits {
					pr, pb, err := e.materialize(dep.P, ps, a)
					if err != nil {
						return nil, 0, err
					}
					if len(splits) == 1 {
						// One-to-one: hand over the parent's rows, which may
						// be memoised or cached, without a copy. The cap
						// clamp makes an append in the ComputeFn reallocate
						// instead of writing into the shared backing array.
						rows = pr[:len(pr):len(pr)]
					} else {
						rows = append(rows, pr...)
					}
					inBytes += pb
				}
				inputs[i] = rows
			case *rdd.ShuffleDep:
				rows, rb := e.shuffleRead(dep, split, a)
				inputs[i] = rows
				inBytes += rb
			default:
				return nil, 0, fmt.Errorf("exec: unknown dependency %T", d)
			}
		}
	}

	a.cost += inBytes * r.CostFactor
	rows := r.Compute(split, inputs)
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

// shuffleRead fetches and merges the reduce input of dep for one partition.
// The view holds the partition's non-empty blocks only; reading before the
// map side finished panics inside the manager.
func (e *Engine) shuffleRead(dep *rdd.ShuffleDep, reduce int, a *acct) ([]rdd.Row, float64) {
	view := e.Shuffle.ReduceInput(dep.ShuffleID, reduce)
	if nbs := view.NodeBytes(); a.shufBy == nil {
		a.shufBy = nbs // our own slice, already sorted by node
	} else {
		for _, nb := range nbs {
			a.shufBy = addNode(a.shufBy, nb.Node, nb.Bytes)
		}
	}
	rows := rdd.MergeReduceColN(view.Len(), view.BlockInto, dep.Agg)
	return rows, rdd.LogicalRowsBytes(rows, e.Ctx.LogicalScale)
}
