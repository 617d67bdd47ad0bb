package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"chopper/internal/rdd"
	"chopper/internal/workloads"
)

// foldData is the seeded dataset of the typed-tier fuzz: up to 400
// int/float64 pairs over 1–60 keys, negative keys included, and the sample
// of their keys a range partitioner is fitted to.
func foldData(seed int64) (data []rdd.Pair, sample []any) {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(400)
	keys := 1 + rng.Intn(60)
	data = make([]rdd.Pair, n)
	sample = make([]any, 0, n)
	for i := range data {
		k := rng.Intn(2*keys) - keys/2 // negative keys hash and order too
		data[i] = rdd.Pair{K: k, V: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-4))}
		sample = append(sample, k)
	}
	return data, sample
}

// foldPartitioner is SumByKey's partitioner for scheme: the tunable default
// (nil), an explicit hash, or a range partitioner fitted to sample.
func foldPartitioner(scheme uint8, reduce int, sample []any) rdd.Partitioner {
	switch scheme % 3 {
	case 1:
		return rdd.NewHashPartitioner(reduce)
	case 2:
		return rdd.NewRangePartitionerFromSample(reduce, sample)
	}
	return nil
}

// typedFolds runs the two fold-only pipelines over one seeded dataset on
// ctx: MapFloat → SumFloat, and GenerateFloatPairs → SumByKey → Collect
// under a hash (explicit or the tunable default) or range partitioner of
// the given count. The sources are pinned at parts partitions.
func typedFolds(t *testing.T, ctx *rdd.Context, seed int64, parts, reduce int, scheme uint8) (float64, []rdd.Row) {
	t.Helper()
	data, sample := foldData(seed)
	src := ctx.Generate("typed-src", parts, int64(len(data))*24+1, func(split, total int) []rdd.Row {
		var out []rdd.Row
		for i := split; i < len(data); i += total {
			out = append(out, data[i])
		}
		return out
	})
	sum, err := src.MapFloat("score", 0.8, func(r rdd.Row) float64 {
		p := r.(rdd.Pair)
		return p.V.(float64)*1.5 + float64(p.K.(int))
	}).SumFloat()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ctx.GenerateFloatPairs("typed-pairs", parts, int64(len(data))*24+1, func(split, total int, emit func(int, float64)) {
		for i := split; i < len(data); i += total {
			k, v := data[i].K.(int), data[i].V.(float64)
			emit(k, v)
			if k%3 == 0 {
				emit(k/3+1000, v*0.25)
			}
		}
	}).SumByKey(foldPartitioner(scheme, reduce, sample)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	return sum, rows
}

// The shapes orderScan builds.
const (
	scanChain  = iota // source → filter → map → SumByKey
	scanCached        // the filter cached
	scanShapes
)

// orderScan runs SQL's order scan over one seeded dataset on ctx — a source
// pinned at parts partitions, a filter, a map, SumByKey under
// foldPartitioner, Collect — in the given shape, built from the typed ops
// (GenerateFloatPairs, MapFloatPairs) or from the row ops they stand for
// (Generate, Filter, MapCost) under the same op names and cost factors.
func orderScan(t *testing.T, ctx *rdd.Context, seed int64, parts, reduce int, scheme uint8, shape int, typed bool) []rdd.Row {
	t.Helper()
	data, sample := foldData(seed)
	bytes := int64(len(data))*24 + 1
	keep := func(v float64) bool { return v >= -0.5 }
	project := func(k int, v float64) (int, float64) { return k/2 + 7, v * 1.25 }
	var src, filtered, mapped *rdd.RDD
	if typed {
		src = ctx.GenerateFloatPairs("orders", parts, bytes, func(split, total int, emit func(int, float64)) {
			for i := split; i < len(data); i += total {
				emit(data[i].K.(int), data[i].V.(float64))
			}
		})
		filtered = src.MapFloatPairs("filter", 0.4, func(k int, v float64) (int, float64, bool) { return k, v, keep(v) })
	} else {
		src = ctx.Generate("orders", parts, bytes, func(split, total int) []rdd.Row {
			var out []rdd.Row
			for i := split; i < len(data); i += total {
				out = append(out, data[i])
			}
			return out
		})
		filtered = src.Filter(func(r rdd.Row) bool { return keep(r.(rdd.Pair).V.(float64)) })
	}
	if shape == scanCached {
		filtered = filtered.Cache()
	}
	if typed {
		mapped = filtered.MapFloatPairs("project", 8.0, func(k int, v float64) (int, float64, bool) {
			k, v = project(k, v)
			return k, v, true
		})
	} else {
		mapped = filtered.MapCost("project", 8.0, func(r rdd.Row) rdd.Row {
			p := r.(rdd.Pair)
			k, v := project(p.K.(int), p.V.(float64))
			return rdd.Pair{K: k, V: v}
		})
	}
	rows, err := mapped.SumByKey(foldPartitioner(scheme, reduce, sample)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// pageRankIters runs two iterations of PageRank's shape over a seeded
// link table on ctx and returns the final ranks: links (a source pinned at
// parts partitions, some pages listed more than once, some without
// out-links) partitioned by a hash partitioner of reduce partitions and
// cached, initial ranks by MapValues, then per iteration a join of links
// and ranks whose matches emit rank shares to the out-links, summed by
// SumByKey and damped — built from the typed ops (JoinFlatMapFloatPairs,
// MapFloatValues) or from the row ops they stand for (Join, FlatMap,
// MapValues) under the same op names and cost factors.
// The final ranks are cached, as PageRank caches them, and collected.
func pageRankIters(t *testing.T, ctx *rdd.Context, seed int64, parts, reduce int, typed bool) []rdd.Row {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pages := 1 + rng.Intn(60)
	links := make([]rdd.Pair, rng.Intn(3*pages))
	for i := range links {
		out := make([]int, rng.Intn(5))
		for j := range out {
			out[j] = rng.Intn(pages)
		}
		links[i] = rdd.Pair{K: rng.Intn(pages), V: out}
	}
	part := rdd.NewHashPartitioner(reduce)
	linked := ctx.Generate("pagerankLinks", parts, int64(len(links))*64+1, func(split, total int) []rdd.Row {
		var out []rdd.Row
		for i := split; i < len(links); i += total {
			out = append(out, links[i])
		}
		return out
	}).PartitionBy(part).Cache()
	ranks := linked.MapValues(func(v any) any { return 1 + float64(len(v.([]int)))/7 })
	share := func(left rdd.Row, rank float64, emit func(int, float64)) {
		for _, dst := range left.([]int) {
			emit(dst, rank/float64(len(left.([]int))))
		}
	}
	damp := func(v float64) float64 { return 0.15 + 0.85*v }
	for range 2 {
		if typed {
			ranks = linked.JoinFlatMapFloatPairs(ranks, part, func(_ int, left rdd.Row, rank float64, emit func(int, float64)) {
				share(left, rank, emit)
			}).SumByKey(part).MapFloatValues(damp)
			continue
		}
		ranks = linked.Join(ranks, part).FlatMap(func(r rdd.Row) []rdd.Row {
			jv := r.(rdd.Pair).V.(rdd.JoinedValue)
			return emitted(func(emit func(int, float64)) { share(jv.Left, jv.Right.(float64), emit) })
		}).SumByKey(part).MapValues(func(v any) any { return damp(v.(float64)) })
	}
	rows, err := ranks.Cache().Collect()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// typedReuse reads one typed RDD twice in a stage, over seeded pairs on
// ctx: ranks (pairs partitioned by a hash partitioner of reduce partitions,
// values damped by MapFloatValues or MapValues) joined with itself, and
// joined with a MapValues over it, each join's matches summed by SumByKey
// — built from JoinFlatMapFloatPairs or from Join and FlatMap.
// It returns both sums' rows, the self-join's first.
func typedReuse(t *testing.T, ctx *rdd.Context, seed int64, parts, reduce int, typed bool) []rdd.Row {
	t.Helper()
	data, _ := foldData(seed)
	part := rdd.NewHashPartitioner(reduce)
	base := ctx.Generate("reuse-src", parts, int64(len(data))*24+1, func(split, total int) []rdd.Row {
		var out []rdd.Row
		for i := split; i < len(data); i += total {
			out = append(out, data[i])
		}
		return out
	}).PartitionBy(part)
	damp := func(v float64) float64 { return 0.15 + 0.85*v }
	var ranks *rdd.RDD
	if typed {
		ranks = base.MapFloatValues(damp)
	} else {
		ranks = base.MapValues(func(v any) any { return damp(v.(float64)) })
	}
	share := func(k int, left rdd.Row, right float64, emit func(int, float64)) {
		emit(k/2, left.(float64)*right)
		emit(-1, right)
	}
	join := func(other *rdd.RDD) *rdd.RDD {
		if typed {
			return ranks.JoinFlatMapFloatPairs(other, part, share)
		}
		return ranks.Join(other, part).FlatMap(func(r rdd.Row) []rdd.Row {
			p := r.(rdd.Pair)
			jv := p.V.(rdd.JoinedValue)
			return emitted(func(emit func(int, float64)) { share(p.K.(int), jv.Left, jv.Right.(float64), emit) })
		})
	}
	var all []rdd.Row
	for _, other := range []*rdd.RDD{ranks, ranks.MapValues(func(v any) any { return v.(float64) * 2 })} {
		rows, err := join(other).SumByKey(part).Collect()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, rows...)
	}
	return all
}

// emitted returns the pairs f emits, in order, as FlatMap rows.
func emitted(f func(emit func(int, float64))) []rdd.Row {
	var out []rdd.Row
	f(func(k int, v float64) { out = append(out, rdd.Pair{K: k, V: v}) })
	return out
}

// sameSums fails unless two SumByKey results hold the same keys and the
// same float64 bits, in the same order.
func sameSums(t *testing.T, what string, got, want []rdd.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i].(rdd.Pair), want[i].(rdd.Pair)
		if g.K.(int) != w.K.(int) || math.Float64bits(g.V.(float64)) != math.Float64bits(w.V.(float64)) {
			t.Fatalf("%s: row %d is %v, want %v", what, i, g, w)
		}
	}
}

// FuzzTypedFoldMatchesBoxed: the engine's typed tier — MapFloat columns
// summed in place by SumFloat, GenerateFloatPairs columns folded straight
// into the map-side arena, SQL's order scan carried as columns from a
// GenerateFloatPairs source through two MapFloatPairs into that arena, and
// PageRank's iteration carried as columns from the SumByKey shuffle read
// through MapFloatValues and JoinFlatMapFloatPairs' cogroup, join and
// flatMap into the next map-side combine — computes bit for bit what
// LocalRunner computes by boxing every row, for random rows over 1–64
// source partitions, hash and range partitioners, in both scheduling
// modes. The order scan and the iteration also match the row ops they
// stand for, in their rows and in every task's simulated end at a
// fractional logical scale, where a cost charged other than row by row
// shows. The engine never calls the order scan's boxed Computes unless the
// shape makes it read rows — a cached filter — nor the iteration's unless
// the RDD is cached. A typed
// parent the cogroup reads on both sides, or beside a row op reading it,
// is charged once, as the row ops charge it.
func FuzzTypedFoldMatchesBoxed(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(0), uint8(0), false)
	f.Add(int64(7), uint8(13), uint8(40), uint8(1), true)
	f.Add(int64(42), uint8(64), uint8(3), uint8(2), false)
	f.Add(int64(99), uint8(5), uint8(200), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, partsRaw, reduceRaw, scheme uint8, coPart bool) {
		parts := 1 + int(partsRaw)%64
		reduce := 1 + int(reduceRaw)%64
		h := newHarness(coPart, nil)
		gotSum, gotRows := typedFolds(t, h.ctx, seed, parts, reduce, scheme)

		local := func() *rdd.Context {
			ctx := rdd.NewContext(6)
			ctx.LogicalScale = 1000
			ctx.SetRunner(rdd.NewLocalRunner())
			return ctx
		}
		wantSum, wantRows := typedFolds(t, local(), seed, parts, reduce, scheme)

		if math.Float64bits(gotSum) != math.Float64bits(wantSum) {
			t.Fatalf("SumFloat: engine %v, oracle %v", gotSum, wantSum)
		}
		sameSums(t, "SumByKey", gotRows, wantRows)

		// engine runs a shape on a fresh engine: its rows, every task's
		// simulated end in stage and task order, and the calls to a typed
		// RDD's boxed Compute, all of them and those while uncached.
		engine := func(shape func(*rdd.Context) []rdd.Row) ([]rdd.Row, []float64, int64, int64) {
			h := newHarness(coPart, nil)
			h.ctx.LogicalScale = 1000 / math.Pi
			c := &computeCounter{inner: h.sch, seen: map[*rdd.RDD]*atomic.Int64{}}
			h.ctx.SetRunner(c)
			rows := shape(h.ctx)
			var ends []float64
			for _, st := range h.col.Stages() {
				for _, tm := range st.Tasks {
					ends = append(ends, tm.End)
				}
			}
			return rows, ends, c.boxed.Load(), c.uncached.Load()
		}
		sameEnds := func(what string, got, want []float64) {
			if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("%s: simulated task ends %v, the row ops' %v", what, got, want)
			}
		}
		for shape := range scanShapes {
			scan := func(typed bool) func(*rdd.Context) []rdd.Row {
				return func(ctx *rdd.Context) []rdd.Row { return orderScan(t, ctx, seed, parts, reduce, scheme, shape, typed) }
			}
			got, gotEnds, boxed, _ := engine(scan(true))
			rowOps, rowOpsEnds, _, _ := engine(scan(false))
			what := fmt.Sprintf("order scan shape %d", shape)
			sameSums(t, what+" vs LocalRunner", got, scan(true)(local()))
			sameSums(t, what+" vs the row ops", got, rowOps)
			sameSums(t, what+" row ops vs LocalRunner", rowOps, scan(false)(local()))
			sameEnds(what, gotEnds, rowOpsEnds)
			if (boxed == 0) != (shape == scanChain) {
				t.Fatalf("%s: the engine called a typed RDD's boxed Compute %d times", what, boxed)
			}
		}

		iters := func(typed bool) func(*rdd.Context) []rdd.Row {
			return func(ctx *rdd.Context) []rdd.Row { return pageRankIters(t, ctx, seed, parts, reduce, typed) }
		}
		got, gotEnds, _, uncached := engine(iters(true))
		rowOps, rowOpsEnds, _, _ := engine(iters(false))
		sameSums(t, "pagerank iterations vs LocalRunner", got, iters(true)(local()))
		sameSums(t, "pagerank iterations vs the row ops", got, rowOps)
		sameSums(t, "pagerank iterations row ops vs LocalRunner", rowOps, iters(false)(local()))
		sameEnds("pagerank iterations", gotEnds, rowOpsEnds)
		if uncached != 0 {
			t.Fatalf("pagerank iterations: the engine called an uncached typed RDD's boxed Compute %d times", uncached)
		}

		// A typed parent read twice in a task, by the typed cogroup's two
		// sides and by a row op beside it, is charged once, as the row
		// ops charge a memoised partition.
		reuse := func(typed bool) func(*rdd.Context) []rdd.Row {
			return func(ctx *rdd.Context) []rdd.Row { return typedReuse(t, ctx, seed, parts, reduce, typed) }
		}
		got, gotEnds, _, _ = engine(reuse(true))
		rowOps, rowOpsEnds, _, _ = engine(reuse(false))
		sameSums(t, "typed reuse vs LocalRunner", got, reuse(true)(local()))
		sameSums(t, "typed reuse vs the row ops", got, rowOps)
		sameEnds("typed reuse", gotEnds, rowOpsEnds)
	})
}

// computeCounter is a JobRunner that counts, for every RDD with a Typed
// compute the job can reach, the calls to its typed and to its boxed
// Compute: all boxed calls, and those made while the RDD was not cached.
type computeCounter struct {
	inner                  rdd.JobRunner
	seen                   map[*rdd.RDD]*atomic.Int64 // typed calls per RDD
	typed, boxed, uncached atomic.Int64
}

// RunJob implements rdd.JobRunner.
func (c *computeCounter) RunJob(target *rdd.RDD, fn func(int, []rdd.Row) (any, error)) ([]any, error) {
	for _, r := range target.Lineage() {
		if r.Typed == nil || c.seen[r] != nil {
			continue
		}
		calls := new(atomic.Int64)
		c.seen[r] = calls
		typed, boxed := r.Typed, r.Compute
		r.Typed = func(split int, in [][]rdd.Row, dst *rdd.ColBlock) {
			c.typed.Add(1)
			calls.Add(1)
			typed(split, in, dst)
		}
		r.Compute = func(split int, in [][]rdd.Row) []rdd.Row {
			c.boxed.Add(1)
			if !r.Cached {
				c.uncached.Add(1)
			}
			return boxed(split, in)
		}
	}
	return c.inner.RunJob(target, fn)
}

// TestBuiltinFoldsTakeTypedTier: the fold-only rows of the kmeans and pca
// built-ins (MapFloat → SumFloat), of pagerank (its iteration's
// JoinFlatMapFloatPairs → SumByKey → MapFloatValues) and of sql's order
// scan (GenerateFloatPairs → MapFloatPairs → SumByKey) are computed as
// columns only: the engine never calls those RDDs' boxed Compute unless
// the RDD is cached (pagerank caches its final ranks, which the actions
// after the loop read as rows), in either scheduling mode, and every
// uncached typed RDD runs its typed compute.
func TestBuiltinFoldsTakeTypedTier(t *testing.T) {
	for _, name := range []string{"kmeans", "pca", "pagerank", "sql"} {
		for _, coPart := range []bool{false, true} {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			workloads.Shrink(w, 10)
			h := newHarness(coPart, nil)
			c := &computeCounter{inner: h.sch, seen: map[*rdd.RDD]*atomic.Int64{}}
			h.ctx.SetRunner(c)
			if _, err := w.Run(h.ctx, w.DefaultInputBytes()); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s copartition=%v: %d typed RDDs; typed computes %d, boxed %d (%d uncached)",
				name, coPart, len(c.seen), c.typed.Load(), c.boxed.Load(), c.uncached.Load())
			if len(c.seen) == 0 || c.typed.Load() == 0 {
				t.Errorf("%s: no typed compute ran", name)
			}
			if n := c.uncached.Load(); n != 0 {
				t.Errorf("%s: the engine called an uncached typed RDD's boxed Compute %d times", name, n)
			}
			for r, calls := range c.seen {
				if !r.Cached && calls.Load() == 0 {
					t.Errorf("%s: typed RDD %d (%s) never ran its typed compute", name, r.ID, r.Op)
				}
			}
		}
	}
}
