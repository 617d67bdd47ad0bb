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
// ctx: MapFloat → SumFloat, and FlatMapFloatPairs → SumByKey → Collect
// under a hash (explicit or the tunable default) or range partitioner of
// the given count. The source is pinned at parts partitions.
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
	rows, err := src.FlatMapFloatPairs(func(r rdd.Row, emit func(int, float64)) {
		p := r.(rdd.Pair)
		k, v := p.K.(int), p.V.(float64)
		emit(k, v)
		if k%3 == 0 {
			emit(k/3+1000, v*0.25)
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
	scanUnion         // the map's output unioned with the filter's, a second reader of the filter
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
	if shape == scanUnion {
		mapped = mapped.Union(filtered)
	}
	rows, err := mapped.SumByKey(foldPartitioner(scheme, reduce, sample)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	return rows
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
// summed in place by SumFloat, FlatMapFloatPairs columns folded straight
// into the map-side arena, and SQL's order scan carried as columns from a
// GenerateFloatPairs source through two MapFloatPairs into that arena —
// computes bit for bit what LocalRunner computes by boxing every row, for
// random rows over 1–64 source partitions, hash and range partitioners, in
// both scheduling modes. The order scan also matches the row ops it stands
// for, in its rows and in every task's simulated end at a fractional
// logical scale, where a cost charged other than row by row shows; the
// engine never calls its boxed Computes unless the shape makes it read
// rows: a cached filter, or a filter a Union reads beside the map.
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

		for shape := range scanShapes {
			// engine runs the scan on a fresh engine: its rows, every
			// task's simulated end in stage and task order, and the calls
			// to a typed RDD's boxed Compute.
			engine := func(typed bool) ([]rdd.Row, []float64, int64) {
				h := newHarness(coPart, nil)
				h.ctx.LogicalScale = 1000 / math.Pi
				c := &computeCounter{inner: h.sch, seen: map[*rdd.RDD]bool{}}
				h.ctx.SetRunner(c)
				rows := orderScan(t, h.ctx, seed, parts, reduce, scheme, shape, typed)
				var ends []float64
				for _, st := range h.col.Stages() {
					for _, tm := range st.Tasks {
						ends = append(ends, tm.End)
					}
				}
				return rows, ends, c.boxed.Load()
			}
			got, gotEnds, boxed := engine(true)
			rowOps, rowOpsEnds, _ := engine(false)
			what := fmt.Sprintf("order scan shape %d", shape)
			sameSums(t, what+" vs LocalRunner", got, orderScan(t, local(), seed, parts, reduce, scheme, shape, true))
			sameSums(t, what+" vs the row ops", got, rowOps)
			sameSums(t, what+" row ops vs LocalRunner", rowOps, orderScan(t, local(), seed, parts, reduce, scheme, shape, false))
			if !slices.EqualFunc(gotEnds, rowOpsEnds, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("%s: simulated task ends %v, the row ops' %v", what, gotEnds, rowOpsEnds)
			}
			if (boxed == 0) != (shape == scanChain) {
				t.Fatalf("%s: the engine called a typed RDD's boxed Compute %d times", what, boxed)
			}
		}
	})
}

// computeCounter is a JobRunner that counts, for every RDD with a Typed
// compute the job can reach, the calls to its typed and to its boxed
// Compute.
type computeCounter struct {
	inner        rdd.JobRunner
	seen         map[*rdd.RDD]bool
	typed, boxed atomic.Int64
}

// RunJob implements rdd.JobRunner.
func (c *computeCounter) RunJob(target *rdd.RDD, fn func(int, []rdd.Row) (any, error)) ([]any, error) {
	for _, r := range target.Lineage() {
		if r.Typed == nil || c.seen[r] {
			continue
		}
		c.seen[r] = true
		typed, boxed := r.Typed, r.Compute
		r.Typed = func(split int, in [][]rdd.Row, dst *rdd.ColBlock) { c.typed.Add(1); typed(split, in, dst) }
		r.Compute = func(split int, in [][]rdd.Row) []rdd.Row { c.boxed.Add(1); return boxed(split, in) }
	}
	return c.inner.RunJob(target, fn)
}

// TestBuiltinFoldsTakeTypedTier: the fold-only rows of the kmeans and pca
// built-ins (MapFloat → SumFloat), of pagerank (FlatMapFloatPairs →
// SumByKey) and of sql's order scan (GenerateFloatPairs → MapFloatPairs →
// SumByKey) are computed as columns only: the engine never calls those
// RDDs' boxed Compute, in either scheduling mode.
func TestBuiltinFoldsTakeTypedTier(t *testing.T) {
	for _, name := range []string{"kmeans", "pca", "pagerank", "sql"} {
		for _, coPart := range []bool{false, true} {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			workloads.Shrink(w, 10)
			h := newHarness(coPart, nil)
			c := &computeCounter{inner: h.sch, seen: map[*rdd.RDD]bool{}}
			h.ctx.SetRunner(c)
			if _, err := w.Run(h.ctx, w.DefaultInputBytes()); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s copartition=%v: %d typed RDDs; typed computes %d, boxed %d", name, coPart, len(c.seen), c.typed.Load(), c.boxed.Load())
			if len(c.seen) == 0 || c.typed.Load() == 0 {
				t.Errorf("%s: no typed compute ran", name)
			}
			if n := c.boxed.Load(); n != 0 {
				t.Errorf("%s: the engine called a typed RDD's boxed Compute %d times", name, n)
			}
		}
	}
}
