package rdd

import (
	"cmp"
	"slices"
)

// ---------- narrow transformations ----------

func (r *RDD) narrowChild(op string, cost float64, compute ComputeFn) *RDD {
	dep := &NarrowDep{P: r}
	child := r.Ctx.newRDD(op, r.NumParts, []Dependency{dep}, compute)
	child.CostFactor = cost
	// Read the parent through the dependency: graph rewrites (repartition
	// insertion) swap dep.P, and the count must follow the new parent.
	child.Recount = func() int { return dep.P.NumParts }
	return child
}

// Map applies f to every row.
func (r *RDD) Map(f func(Row) Row) *RDD { return r.MapCost("map", 1.0, f) }

// MapCost is Map with an explicit operator name and CPU cost factor
// (relative to a plain scan) for the cost model.
func (r *RDD) MapCost(name string, cost float64, f func(Row) Row) *RDD {
	return r.narrowChild(name, cost, func(split int, in [][]Row) []Row {
		out := make([]Row, len(in[0]))
		for i, row := range in[0] {
			out[i] = f(row)
		}
		return out
	})
}

// Filter keeps rows satisfying pred, calling it once per row into a keep
// bitmap (stack-held up to 2048 rows), then fills an exact-size output.
func (r *RDD) Filter(pred func(Row) bool) *RDD {
	return r.narrowChild("filter", 0.4, func(split int, in [][]Row) []Row {
		rows, buf := in[0], [32]uint64{}
		keep := buf[:]
		if words := (len(rows) + 63) / 64; words > len(buf) {
			keep = make([]uint64, words)
		}
		n := 0
		for i, row := range rows {
			if pred(row) {
				keep[i/64] |= 1 << (i % 64)
				n++
			}
		}
		if n == 0 {
			return nil
		}
		out := make([]Row, 0, n)
		for i, row := range rows {
			if keep[i/64]&(1<<(i%64)) != 0 {
				out = append(out, row)
			}
		}
		return out
	})
}

// FlatMap applies f and concatenates the results, once: every f(row) is
// kept until the total is known, then copied into one exact-size slice
// (the output is often several times the input; growing it by doubling
// copied it about twice over).
func (r *RDD) FlatMap(f func(Row) []Row) *RDD {
	return r.narrowChild("flatMap", 1.2, func(split int, in [][]Row) []Row {
		parts := make([][]Row, len(in[0]))
		total := 0
		for i, row := range in[0] {
			parts[i] = f(row)
			total += len(parts[i])
		}
		if total == 0 {
			return nil
		}
		out := make([]Row, 0, total)
		for _, part := range parts {
			out = append(out, part...)
		}
		return out
	})
}

// MapPartitions applies f to whole partitions; name and cost feed the
// signature and cost model (heavy numeric kernels pass cost > 1).
func (r *RDD) MapPartitions(name string, cost float64, f func(split int, rows []Row) []Row) *RDD {
	return r.narrowChild(name, cost, func(split int, in [][]Row) []Row {
		return f(split, in[0])
	})
}

// MapValues transforms the value of each pair, preserving partitioning.
func (r *RDD) MapValues(f func(any) any) *RDD {
	child := r.narrowChild("mapValues", 0.8, func(split int, in [][]Row) []Row {
		out := make([]Row, len(in[0]))
		for i, row := range in[0] {
			p := row.(Pair)
			out[i] = Pair{K: p.K, V: f(p.V)}
		}
		return out
	})
	child.Part = r.Part // keys unchanged: co-partitioning survives
	return child
}

// Values projects pair values.
func (r *RDD) Values() *RDD {
	return r.narrowChild("values", 0.3, func(split int, in [][]Row) []Row {
		out := make([]Row, len(in[0]))
		for i, row := range in[0] {
			out[i] = row.(Pair).V
		}
		return out
	})
}

// Persist marks the RDD for in-memory caching after first computation.
// Returns the receiver for chaining.
func (r *RDD) Persist() *RDD {
	r.Cached = true
	return r
}

// Cache is an alias for Persist.
func (r *RDD) Cache() *RDD { return r.Persist() }

// ---------- wide (shuffle) transformations ----------

// shuffled constructs the reduce-side RDD of a shuffle.
func (r *RDD) shuffled(op string, p Partitioner, fixed bool, agg *Aggregator) *RDD {
	dep := &ShuffleDep{P: r, Part: p, Agg: agg, Fixed: fixed}
	child := r.Ctx.newRDD(op, p.NumPartitions(), []Dependency{dep}, func(split int, in [][]Row) []Row {
		return in[0]
	})
	child.Part = p
	child.CostFactor = 0.8
	// Count follows the (possibly retuned) shuffle partitioner.
	child.Recount = func() int { return dep.Part.NumPartitions() }
	return child
}

// resolvePartitioner maps an optional explicit partition count to a
// partitioner and a fixed flag.
func (r *RDD) resolvePartitioner(n int) (Partitioner, bool) {
	if n > 0 {
		return NewHashPartitioner(n), true
	}
	return r.Ctx.defaultPartitioner(), false
}

// orDefault maps an optional explicit partitioner to a partitioner and a
// fixed flag: nil is the tunable context default.
func (r *RDD) orDefault(p Partitioner) (Partitioner, bool) {
	if p == nil {
		return r.Ctx.defaultPartitioner(), false
	}
	return p, true
}

// PartitionBy redistributes pairs using p (always a shuffle; user-fixed).
func (r *RDD) PartitionBy(p Partitioner) *RDD {
	return r.shuffled("partitionBy", p, true, nil)
}

// Repartition redistributes rows over n hash partitions (user-fixed when
// n > 0, tunable when n <= 0).
func (r *RDD) Repartition(n int) *RDD {
	p, fixed := r.resolvePartitioner(n)
	return r.shuffled("repartition", p, fixed, nil)
}

// ReduceByKey merges values per key with f over n partitions (n <= 0 for
// the tunable default).
func (r *RDD) ReduceByKey(f func(a, b any) any, n int) *RDD {
	p, fixed := r.resolvePartitioner(n)
	rdd := r.shuffled("reduceByKey", p, fixed, ReduceAggregator(f))
	return rdd
}

// ReduceByKeyPart is ReduceByKey with an explicit partitioner (user-fixed).
func (r *RDD) ReduceByKeyPart(f func(a, b any) any, p Partitioner) *RDD {
	return r.shuffled("reduceByKey", p, true, ReduceAggregator(f))
}

// SumByKey adds float64 values per key under p (nil for the tunable
// default): ReduceByKey with the float sum — the same "reduceByKey" op, so
// signatures and plans do not tell them apart — but through SumAggregator's
// unboxed hooks, so the columnar kernels fold raw float64 segments and box
// once per key on emission instead of once per merge.
func (r *RDD) SumByKey(p Partitioner) *RDD {
	p, fixed := r.orDefault(p)
	return r.shuffled("reduceByKey", p, fixed, SumAggregator())
}

// GroupByKey groups values per key into []any over n partitions.
func (r *RDD) GroupByKey(n int) *RDD {
	p, fixed := r.resolvePartitioner(n)
	return r.shuffled("groupByKey", p, fixed, GroupAggregator())
}

// ---------- cogroup / join ----------

// CoGroup groups r and o by key under partitioner p (nil for the default).
// Output rows are Pair{K, [][]any{valuesFromR, valuesFromO}}, keys sorted;
// keys CompareKeys ties (int 3 and int64 3) keep their first appearance
// order, r's records before o's. A side without values is nil.
// A parent already partitioned by p (same Identity) is consumed through a
// narrow dependency — no shuffle — which is how co-partitioned joins
// eliminate shuffle traffic (paper Section III-C).
//
// A task's groups share storage: every key's side pair is a two-element
// window of one [][]any slab, every narrow side's values a window of one
// []any slab, and a shuffled side is the key's merged group itself, not a
// copy (a repeated key's groups are concatenated into a fresh slice).
// Every window and adopted group is capacity-clamped, so an append to a
// side reallocates instead of running into the next group or the shuffle
// read's rows; assigning to a side's elements would not, so the rows are
// read-only, like every ComputeFn input.
func (r *RDD) CoGroup(o *RDD, p Partitioner) *RDD {
	child, narrow := r.coGroupOf(o, p)
	child.Compute = func(split int, in [][]Row) []Row { return coGroup(in, narrow) }
	return child
}

// coGroupOf builds CoGroup's RDD without its compute, and tells which of
// its two inputs are co-partitioned parents read through a narrow
// dependency rather than shuffled.
func (r *RDD) coGroupOf(o *RDD, p Partitioner) (*RDD, []bool) {
	p, fixed := r.orDefault(p)
	parents := []*RDD{r, o}
	deps := make([]Dependency, len(parents))
	narrow := make([]bool, len(parents))
	for i, par := range parents {
		if par.Part != nil && par.Part.Identity() == p.Identity() {
			deps[i] = &NarrowDep{P: par}
			narrow[i] = true
		} else {
			deps[i] = &ShuffleDep{P: par, Part: p, Agg: GroupAggregator(), Fixed: fixed}
		}
	}
	child := r.Ctx.newRDD("cogroup", p.NumPartitions(), deps, nil)
	child.Part = p
	child.CostFactor = 1.6
	// Follow a retuned shuffle input if present; co-partitioned (all-narrow)
	// cogroups keep the construction-time partitioner count.
	child.Recount = func() int {
		for _, d := range child.Deps {
			if sd, ok := d.(*ShuffleDep); ok {
				return sd.Part.NumPartitions()
			}
		}
		return child.Part.NumPartitions()
	}
	return child, narrow
}

// coGroup is CoGroup's compute. narrow[i] tells whether input i holds a
// co-partitioned parent's pairs, one value each, or a shuffle's merged
// groups, one []any per key. The key→slot map and the per-slot arrays are
// the pooled kernel scratch's. One pass gives every distinct key a group
// slot in first appearance order, notes each record's slot and counts the
// narrow values per (group, side); the slabs are cut by those counts, and a
// second pass fills them. A warm task allocates its output, the two slabs
// (no values slab when no side is narrow) and, per key, the Pair and its
// [][]any header.
func coGroup(in [][]Row, narrow []bool) []Row {
	s := takeScratch(len(in[0]) + len(in[1]))
	defer s.release()
	values := 0
	for i, rows := range in {
		for _, row := range rows {
			k := row.(Pair).K
			sl, ok := s.anySlots[k]
			if !ok {
				sl = int32(len(s.anys))
				s.anySlots[k] = sl
				s.anys = append(s.anys, k)
				s.idx = append(s.idx, 0, 0)
			}
			s.buckets = append(s.buckets, sl)
			if narrow[i] {
				s.idx[2*int(sl)+i]++
				values++
			}
		}
	}
	sides := make([][]any, len(s.idx))
	var slab []any
	if values > 0 {
		slab = make([]any, values)
	}
	off := 0
	for j, n := range s.idx {
		if n > 0 {
			sides[j] = slab[off : off : off+int(n)]
			off += int(n)
		}
	}
	slots := s.buckets
	for i, rows := range in {
		for r, row := range rows {
			v, j := row.(Pair).V, 2*int(slots[r])+i
			switch {
			case narrow[i]:
				sides[j] = append(sides[j], v)
			case sides[j] == nil:
				// A merged group: its key is unique in the shuffle's output.
				if vs := v.([]any); len(vs) > 0 {
					sides[j] = vs[:len(vs):len(vs)]
				}
			default:
				sides[j] = slices.Clip(append(sides[j], v.([]any)...))
			}
		}
		slots = slots[len(rows):]
	}
	keys, order := s.anys, s.idx[:0] // the counts are spent; 2 per key leave room
	for sl := range keys {
		order = append(order, int32(sl))
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := CompareKeys(keys[a], keys[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b) // ties keep first appearance order
	})
	out := make([]Row, len(order))
	for i, sl := range order {
		out[i] = Pair{K: keys[sl], V: sides[2*sl : 2*sl+2 : 2*sl+2]}
	}
	return out
}

// JoinedValue is the value type produced by Join: one value from each side.
type JoinedValue struct {
	Left, Right any
}

// LogicalBytes implements Sizer.
func (j JoinedValue) LogicalBytes() int64 { return RowBytes(j.Left) + RowBytes(j.Right) + 8 }

// Join inner-joins two pair RDDs by key under partitioner p (nil for the
// default), emitting Pair{K, JoinedValue} for each match combination, left
// value major. A task counts its matches first and fills one output of
// exactly that length (nil when nothing matches), so it allocates the
// output and, per match, the Pair and its JoinedValue; the joined values
// are the cogroup's own (see CoGroup), not copies.
func (r *RDD) Join(o *RDD, p Partitioner) *RDD {
	cg := r.CoGroup(o, p)
	joined := cg.narrowChild("join", 1.2, func(split int, in [][]Row) []Row {
		n := 0
		for _, row := range in[0] {
			sides := row.(Pair).V.([][]any)
			n += len(sides[0]) * len(sides[1])
		}
		if n == 0 {
			return nil
		}
		out := make([]Row, 0, n)
		for _, row := range in[0] {
			pr := row.(Pair)
			sides := pr.V.([][]any)
			for _, lv := range sides[0] {
				for _, rv := range sides[1] {
					out = append(out, Pair{K: pr.K, V: JoinedValue{Left: lv, Right: rv}})
				}
			}
		}
		return out
	})
	joined.Part = cg.Part
	return joined
}
