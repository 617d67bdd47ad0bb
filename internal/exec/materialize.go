package exec

import (
	"fmt"

	"chopper/internal/rdd"
	"chopper/internal/storage"
)

// acct accumulates the node-agnostic cost quantities of one task while its
// partition is materialized.
type acct struct {
	srcBytes int64            // logical bytes read from generator sources
	srcNodes []string         // preferred locations of those reads
	cacheBy  map[string]int64 // cached-input logical bytes by holding node; made on first write
	shufBy   map[string]int64 // shuffle-input logical bytes by map node; made on first write
	cost     float64          // logical-byte cost units (bytes x op factor)
	pending  []pendingCache   // partitions to cache after placement
	memo     map[[2]int]memoEntry
}

type memoEntry struct {
	rows  []rdd.Row
	bytes float64
}

func newAcct() *acct {
	return &acct{memo: map[[2]int]memoEntry{}}
}

// materialize computes one partition of r, charging work to a. It returns
// the rows and their logical byte size.
func (e *Engine) materialize(r *rdd.RDD, split int, a *acct) ([]rdd.Row, float64, error) {
	key := [2]int{r.ID, split}
	if m, ok := a.memo[key]; ok {
		return m.rows, m.bytes, nil
	}
	scale := e.Ctx.LogicalScale

	// Cached partition available from an earlier stage?
	if r.Cached {
		if entry, ok := e.Cache.Peek(storage.CacheKey{RDD: r.ID, Split: split, Of: r.NumParts}); ok {
			if a.cacheBy == nil {
				a.cacheBy = map[string]int64{}
			}
			a.cacheBy[entry.Node] += entry.Bytes
			bytes := float64(entry.Bytes)
			a.memo[key] = memoEntry{rows: entry.Rows, bytes: bytes}
			return entry.Rows, bytes, nil
		}
	}

	var inputs [][]rdd.Row
	var inBytes float64
	switch {
	case len(r.Deps) == 0:
		// Source: charge the split's logical share of the input file.
		file := e.ensureSource(r)
		sb := e.Blocks.SplitBytes(file, split, r.NumParts)
		a.srcBytes += sb
		if locs := e.Blocks.SplitLocations(file, split, r.NumParts); len(locs) > 0 && len(a.srcNodes) == 0 {
			a.srcNodes = locs
		}
		inBytes = float64(sb)
	default:
		inputs = make([][]rdd.Row, len(r.Deps))
		for i, d := range r.Deps {
			switch dep := d.(type) {
			case *rdd.NarrowDep:
				var rows []rdd.Row
				for _, ps := range dep.Splits(split) {
					pr, pb, err := e.materialize(dep.P, ps, a)
					if err != nil {
						return nil, 0, err
					}
					rows = append(rows, pr...)
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
	a.memo[key] = memoEntry{rows: rows, bytes: outBytes}
	return rows, outBytes, nil
}

// shuffleRead fetches and merges the reduce input of dep for one partition.
// The view holds the partition's non-empty blocks only; reading before the
// map side finished panics inside the manager.
func (e *Engine) shuffleRead(dep *rdd.ShuffleDep, reduce int, a *acct) ([]rdd.Row, float64) {
	view := e.Shuffle.ReduceInput(dep.ShuffleID, reduce)
	if a.shufBy == nil {
		a.shufBy = map[string]int64{}
	}
	for _, nb := range view.NodeBytes() {
		a.shufBy[nb.Node] += nb.Bytes
	}
	rows := rdd.MergeReduceColN(view.Len(), view.BlockInto, dep.Agg)
	return rows, rdd.LogicalRowsBytes(rows, e.Ctx.LogicalScale)
}
