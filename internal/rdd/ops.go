package rdd

import (
	"math/rand"
	"sort"
)

// ---------- narrow transformations ----------

func (r *RDD) narrowChild(op string, cost float64, compute ComputeFn) *RDD {
	dep := OneToOne(r)
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

// KeyBy converts rows into pairs keyed by f(row).
func (r *RDD) KeyBy(f func(Row) any) *RDD {
	return r.narrowChild("keyBy", 0.6, func(split int, in [][]Row) []Row {
		out := make([]Row, len(in[0]))
		for i, row := range in[0] {
			out[i] = Pair{K: f(row), V: row}
		}
		return out
	})
}

// Keys projects pair keys.
func (r *RDD) Keys() *RDD {
	return r.narrowChild("keys", 0.3, func(split int, in [][]Row) []Row {
		out := make([]Row, len(in[0]))
		for i, row := range in[0] {
			out[i] = row.(Pair).K
		}
		return out
	})
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

// Union concatenates two RDDs partition-wise (narrow).
func (r *RDD) Union(o *RDD) *RDD {
	left, right := r, o
	child := r.Ctx.newRDD("union", left.NumParts+right.NumParts, []Dependency{
		&NarrowDep{P: left, Splits: func(s int) []int {
			if s < left.NumParts {
				return []int{s}
			}
			return nil
		}},
		&NarrowDep{P: right, Splits: func(s int) []int {
			if s >= left.NumParts {
				return []int{s - left.NumParts}
			}
			return nil
		}},
	}, func(split int, in [][]Row) []Row {
		if split < left.NumParts {
			return in[0]
		}
		return in[1]
	})
	child.CostFactor = 0.1
	child.Recount = func() int { return left.NumParts + right.NumParts }
	return child
}

// Coalesce reduces the partition count to n without a shuffle by grouping
// contiguous parent splits.
func (r *RDD) Coalesce(n int) *RDD {
	if n <= 0 {
		n = 1
	}
	parent := r
	child := r.Ctx.newRDD("coalesce", minInt(n, parent.NumParts), []Dependency{
		&NarrowDep{P: parent, Splits: func(s int) []int {
			m := minInt(n, parent.NumParts)
			lo := s * parent.NumParts / m
			hi := (s + 1) * parent.NumParts / m
			out := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				out = append(out, i)
			}
			return out
		}},
	}, func(split int, in [][]Row) []Row { return in[0] })
	child.CostFactor = 0.1
	child.Recount = func() int { return minInt(n, parent.NumParts) }
	return child
}

// Sample keeps each row independently with the given probability, using a
// deterministic per-partition stream derived from the context seed.
func (r *RDD) Sample(fraction float64) *RDD {
	parent := r
	child := r.narrowChild("sample", 0.4, nil)
	child.Compute = func(split int, in [][]Row) []Row {
		rng := rand.New(rand.NewSource(parent.Ctx.Seed*1e6 + int64(child.ID)*7919 + int64(split)))
		var out []Row
		for _, row := range in[0] {
			if rng.Float64() < fraction {
				out = append(out, row)
			}
		}
		return out
	}
	return child
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
func (r *RDD) shuffled(op string, p Partitioner, fixed bool, agg *Aggregator, wantRange bool) *RDD {
	dep := &ShuffleDep{P: r, Part: p, Agg: agg, Fixed: fixed, WantRange: wantRange}
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
	return r.shuffled("partitionBy", p, true, nil, false)
}

// Repartition redistributes rows over n hash partitions (user-fixed when
// n > 0, tunable when n <= 0).
func (r *RDD) Repartition(n int) *RDD {
	p, fixed := r.resolvePartitioner(n)
	return r.shuffled("repartition", p, fixed, nil, false)
}

// CombineByKey shuffles with full combine semantics under the given
// partitioner (nil for the context default).
func (r *RDD) CombineByKey(agg *Aggregator, p Partitioner) *RDD {
	p, fixed := r.orDefault(p)
	return r.shuffled("combineByKey", p, fixed, agg, false)
}

// ReduceByKey merges values per key with f over n partitions (n <= 0 for
// the tunable default).
func (r *RDD) ReduceByKey(f func(a, b any) any, n int) *RDD {
	p, fixed := r.resolvePartitioner(n)
	rdd := r.shuffled("reduceByKey", p, fixed, ReduceAggregator(f), false)
	return rdd
}

// ReduceByKeyPart is ReduceByKey with an explicit partitioner (user-fixed).
func (r *RDD) ReduceByKeyPart(f func(a, b any) any, p Partitioner) *RDD {
	return r.shuffled("reduceByKey", p, true, ReduceAggregator(f), false)
}

// SumByKey adds float64 values per key under p (nil for the tunable
// default): ReduceByKey with the float sum — the same "reduceByKey" op, so
// signatures and plans do not tell them apart — but through SumAggregator's
// unboxed hooks, so the columnar kernels fold raw float64 segments and box
// once per key on emission instead of once per merge.
func (r *RDD) SumByKey(p Partitioner) *RDD {
	p, fixed := r.orDefault(p)
	return r.shuffled("reduceByKey", p, fixed, SumAggregator(), false)
}

// GroupByKey groups values per key into []any over n partitions.
func (r *RDD) GroupByKey(n int) *RDD {
	p, fixed := r.resolvePartitioner(n)
	return r.shuffled("groupByKey", p, fixed, GroupAggregator(), false)
}

// AggregateByKey folds values into an accumulator created by zero.
func (r *RDD) AggregateByKey(zero func() any, seq func(acc any, v any) any, comb func(a, b any) any, n int) *RDD {
	p, fixed := r.resolvePartitioner(n)
	agg := &Aggregator{
		Create:         func(v any) any { return seq(zero(), v) },
		MergeValue:     seq,
		MergeCombiners: comb,
		MapSideCombine: true,
	}
	return r.shuffled("aggregateByKey", p, fixed, agg, false)
}

// Distinct removes duplicate rows via a keyed shuffle.
func (r *RDD) Distinct(n int) *RDD {
	keyed := r.narrowChild("distinctKey", 0.5, func(split int, in [][]Row) []Row {
		out := make([]Row, len(in[0]))
		for i, row := range in[0] {
			out[i] = Pair{K: FormatKey(row), V: row}
		}
		return out
	})
	p, fixed := keyed.resolvePartitioner(n)
	first := &Aggregator{
		Create:         func(v any) any { return v },
		MergeValue:     func(acc, v any) any { return acc },
		MergeCombiners: func(a, b any) any { return a },
		MapSideCombine: true,
	}
	red := keyed.shuffled("distinct", p, fixed, first, false)
	return red.Values()
}

// SortByKey globally sorts pairs by key using a sampled range partitioner
// over n partitions; each output partition is locally sorted and partition
// ranges are globally ordered.
func (r *RDD) SortByKey(n int) *RDD {
	if n <= 0 {
		n = r.Ctx.DefaultParallelism
	}
	pending := NewRangePartitionerFromSample(n, nil) // bounds filled by scheduler sampling
	child := r.shuffled("sortByKey", pending, n > 0, nil, true)
	sorted := child.MapPartitions("sortPartition", 1.5, func(split int, rows []Row) []Row {
		out := make([]Row, len(rows))
		copy(out, rows)
		sort.SliceStable(out, func(i, j int) bool {
			return CompareKeys(out[i].(Pair).K, out[j].(Pair).K) < 0
		})
		return out
	})
	sorted.Part = pending
	return sorted
}

// ---------- cogroup / join ----------

// CoGroup groups r and o by key under partitioner p (nil for the default).
// Output rows are Pair{K, [][]any{valuesFromR, valuesFromO}}, keys sorted.
// A parent already partitioned by p (same Identity) is consumed through a
// narrow dependency — no shuffle — which is how co-partitioned joins
// eliminate shuffle traffic (paper Section III-C).
func (r *RDD) CoGroup(o *RDD, p Partitioner) *RDD {
	p, fixed := r.orDefault(p)
	parents := []*RDD{r, o}
	deps := make([]Dependency, len(parents))
	narrow := make([]bool, len(parents))
	for i, par := range parents {
		if par.Part != nil && par.Part.Identity() == p.Identity() {
			deps[i] = OneToOne(par)
			narrow[i] = true
		} else {
			deps[i] = &ShuffleDep{P: par, Part: p, Agg: GroupAggregator(), Fixed: fixed}
		}
	}
	child := r.Ctx.newRDD("cogroup", p.NumPartitions(), deps, func(split int, in [][]Row) []Row {
		groups := map[any]*[2][]any{}
		var order []any
		add := func(src int, k any, vs ...any) {
			g, ok := groups[k]
			if !ok {
				g = &[2][]any{}
				groups[k] = g
				order = append(order, k)
			}
			g[src] = append(g[src], vs...)
		}
		for i := range in {
			for _, row := range in[i] {
				pr := row.(Pair)
				if narrow[i] {
					add(i, pr.K, pr.V)
				} else {
					add(i, pr.K, pr.V.([]any)...)
				}
			}
		}
		sort.Slice(order, func(a, b int) bool { return CompareKeys(order[a], order[b]) < 0 })
		out := make([]Row, len(order))
		for i, k := range order {
			g := groups[k]
			out[i] = Pair{K: k, V: [][]any{g[0], g[1]}}
		}
		return out
	})
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
	return child
}

// JoinedValue is the value type produced by Join: one value from each side.
type JoinedValue struct {
	Left, Right any
}

// LogicalBytes implements Sizer.
func (j JoinedValue) LogicalBytes() int64 { return RowBytes(j.Left) + RowBytes(j.Right) + 8 }

// Join inner-joins two pair RDDs by key under partitioner p (nil for the
// default), emitting Pair{K, JoinedValue} for each match combination.
func (r *RDD) Join(o *RDD, p Partitioner) *RDD {
	cg := r.CoGroup(o, p)
	joined := cg.narrowChild("join", 1.2, func(split int, in [][]Row) []Row {
		var out []Row
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

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
