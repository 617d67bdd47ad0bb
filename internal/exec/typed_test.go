package exec_test

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"chopper/internal/rdd"
	"chopper/internal/workloads"
)

// typedFolds runs the two fold-only pipelines over one seeded dataset on
// ctx: MapFloat → SumFloat, and FlatMapFloatPairs → SumByKey → Collect
// under a hash (explicit or the tunable default) or range partitioner of
// the given count. The source is pinned at parts partitions.
func typedFolds(t *testing.T, ctx *rdd.Context, seed int64, parts, reduce int, scheme uint8) (float64, []rdd.Row) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(400)
	keys := 1 + rng.Intn(60)
	data := make([]rdd.Pair, n)
	sample := make([]any, 0, n)
	for i := range data {
		k := rng.Intn(2*keys) - keys/2 // negative keys hash and order too
		data[i] = rdd.Pair{K: k, V: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-4))}
		sample = append(sample, k)
	}
	src := ctx.Generate("typed-src", parts, int64(n)*24+1, func(split, total int) []rdd.Row {
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
	var part rdd.Partitioner
	switch scheme % 3 {
	case 1:
		part = rdd.NewHashPartitioner(reduce)
	case 2:
		part = rdd.NewRangePartitionerFromSample(reduce, sample)
	}
	rows, err := src.FlatMapFloatPairs(func(r rdd.Row, emit func(int, float64)) {
		p := r.(rdd.Pair)
		k, v := p.K.(int), p.V.(float64)
		emit(k, v)
		if k%3 == 0 {
			emit(k/3+1000, v*0.25)
		}
	}).SumByKey(part).Collect()
	if err != nil {
		t.Fatal(err)
	}
	return sum, rows
}

// FuzzTypedFoldMatchesBoxed: the engine's typed tier — MapFloat columns
// summed in place by SumFloat, FlatMapFloatPairs columns folded straight
// into the map-side arena — computes bit for bit what LocalRunner computes
// by boxing every row, for random rows over 1–64 source partitions, hash
// and range partitioners, in both scheduling modes.
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

		lctx := rdd.NewContext(6)
		lctx.LogicalScale = 1000
		lctx.SetRunner(rdd.NewLocalRunner())
		wantSum, wantRows := typedFolds(t, lctx, seed, parts, reduce, scheme)

		if math.Float64bits(gotSum) != math.Float64bits(wantSum) {
			t.Fatalf("SumFloat: engine %v, oracle %v", gotSum, wantSum)
		}
		if len(gotRows) != len(wantRows) {
			t.Fatalf("SumByKey: engine %d rows, oracle %d", len(gotRows), len(wantRows))
		}
		for i := range gotRows {
			g, w := gotRows[i].(rdd.Pair), wantRows[i].(rdd.Pair)
			if g.K.(int) != w.K.(int) || math.Float64bits(g.V.(float64)) != math.Float64bits(w.V.(float64)) {
				t.Fatalf("SumByKey row %d: engine %v, oracle %v", i, g, w)
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
// built-ins (MapFloat → SumFloat) and of pagerank (FlatMapFloatPairs →
// SumByKey) are computed as columns only: the engine never calls those
// RDDs' boxed Compute, in either scheduling mode.
func TestBuiltinFoldsTakeTypedTier(t *testing.T) {
	for _, name := range []string{"kmeans", "pca", "pagerank"} {
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
