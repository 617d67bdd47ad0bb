package exec_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"chopper/internal/rdd"
	"chopper/internal/storage"
	"chopper/internal/workloads"
)

// cacheCanary is the guard of rdd.ComputeFn's read-only-inputs contract.
// The engine hands a narrow child its parent's memoised or cached rows
// without a copy, so a ComputeFn that sorts, overwrites or appends in place
// would corrupt a partition other tasks and later jobs read. The canary
// prints every partition a Cached RDD computes at the moment its ComputeFn
// returns — exactly what Cache.Put is about to receive; text, so the
// snapshot is deep whatever the row types — and later compares what the
// cache holds against it.
type cacheCanary struct {
	inner rdd.JobRunner

	mu      sync.Mutex
	watched map[int]bool
	snap    map[storage.CacheKey]string
	// gens holds the generator of every source the jobs reached, by op
	// name: Gen, which no source memo wraps.
	gens map[string]func(split, numSplits int) []rdd.Row
}

func watchCache(h *harness) *cacheCanary {
	c := &cacheCanary{inner: h.sch, watched: map[int]bool{}, snap: map[storage.CacheKey]string{},
		gens: map[string]func(int, int) []rdd.Row{}}
	h.ctx.SetRunner(c)
	return c
}

// RunJob implements rdd.JobRunner: it wraps the ComputeFn of every Cached
// RDD the job can reach, then runs the job on the real scheduler.
func (c *cacheCanary) RunJob(target *rdd.RDD, fn func(int, []rdd.Row) (any, error)) ([]any, error) {
	for _, r := range target.Lineage() {
		if r.Gen != nil {
			c.gens[r.Op] = r.Gen
		}
		if !r.Cached || c.watched[r.ID] {
			continue
		}
		c.watched[r.ID] = true
		r, compute := r, r.Compute
		r.Compute = func(split int, in [][]rdd.Row) []rdd.Row {
			rows := compute(split, in)
			c.mu.Lock()
			c.snap[storage.CacheKey{RDD: r.ID, Split: split, Of: r.NumParts}] = fmt.Sprint(rows)
			c.mu.Unlock()
			return rows
		}
	}
	return c.inner.RunJob(target, fn)
}

// check compares every partition still cached with its snapshot and returns
// how many it compared.
func (c *cacheCanary) check(t *testing.T, cache *storage.MemStore) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	compared := 0
	for key, want := range c.snap {
		entry, ok := cache.Peek(key)
		if !ok {
			continue // evicted, or too large to cache
		}
		compared++
		if got := fmt.Sprint(entry.Rows); got != want {
			t.Errorf("cached partition %+v changed after it was computed:\n got %.300s\nwant %.300s", key, got, want)
		}
	}
	return compared
}

// TestNarrowOpsLeaveInputsAlone runs every narrow constructor of
// internal/rdd over a cached, hash-partitioned parent, twice: the first job
// computes parent and child in one task (the child's input aliases the
// task's memoised rows), the second reads the parent from the cache (the
// input aliases the cached rows). The results must match the copying
// LocalRunner oracle and the cached parent must never change.
func TestNarrowOpsLeaveInputsAlone(t *testing.T) {
	add := func(a, b any) any { return a.(float64) + b.(float64) }
	base := func(ctx *rdd.Context) *rdd.RDD {
		return pairSource(ctx, 600, 37).ReduceByKey(add, 4).Cache()
	}
	cases := []struct {
		name  string
		build func(b *rdd.RDD) *rdd.RDD
	}{
		{"Map", func(b *rdd.RDD) *rdd.RDD { return b.Map(func(r rdd.Row) rdd.Row { return r }) }},
		{"Filter", func(b *rdd.RDD) *rdd.RDD {
			return b.Filter(func(r rdd.Row) bool { return r.(rdd.Pair).K.(int)%2 == 0 })
		}},
		{"FlatMap", func(b *rdd.RDD) *rdd.RDD { return b.FlatMap(func(r rdd.Row) []rdd.Row { return []rdd.Row{r, r} }) }},
		{"MapPartitions", func(b *rdd.RDD) *rdd.RDD {
			return b.MapPartitions("head", 1, func(_ int, rows []rdd.Row) []rdd.Row { return rows[:len(rows)/2] })
		}},
		{"MapValues", func(b *rdd.RDD) *rdd.RDD { return b.MapValues(func(v any) any { return v.(float64) * 2 }) }},
		{"Values", func(b *rdd.RDD) *rdd.RDD { return b.Values() }},
		{"CoGroup narrow side", func(b *rdd.RDD) *rdd.RDD {
			return b.CoGroup(b.MapValues(func(v any) any { return v }), b.Part)
		}},
		{"Join narrow side", func(b *rdd.RDD) *rdd.RDD {
			return b.Join(pairSource(b.Ctx, 300, 37), b.Part)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lctx := rdd.NewContext(6)
			lctx.LogicalScale = 1000
			lctx.SetRunner(rdd.NewLocalRunner())
			want, err := tc.build(base(lctx)).Collect()
			if err != nil {
				t.Fatal(err)
			}

			h := newHarness(true, nil)
			canary := watchCache(h)
			child := tc.build(base(h.ctx))
			for job := 0; job < 2; job++ {
				got, err := child.Collect()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("job %d diverged from the oracle:\n got %v\nwant %v", job, got, want)
				}
			}
			if n := canary.check(t, h.eng.Cache); n < 4 {
				t.Fatalf("compared %d cached partitions, want the parent's 4", n)
			}
		})
	}
}

// TestCoGroupSidesStayInTheirWindows pins CoGroup's aliasing contract over a
// cached narrow side and a shuffled one. A task's sides are windows of
// shared slabs or the shuffle's merged groups themselves, so a consumer's
// append to one key's side (or side pair) must reallocate instead of
// overwriting the next group, and a cached cogroup must read the same after
// a downstream Join has run over it twice.
func TestCoGroupSidesStayInTheirWindows(t *testing.T) {
	add := func(a, b any) any { return a.(float64) + b.(float64) }
	// jobs lists, in run order, an appending consumer of the cogroup, the
	// join twice and the cogroup itself.
	jobs := func(ctx *rdd.Context) []*rdd.RDD {
		narrow := pairSource(ctx, 600, 37).ReduceByKey(add, 4).Cache()
		join := narrow.Join(pairSource(ctx, 300, 37), narrow.Part)
		cg := join.Deps[0].Parent().Cache()
		if _, ok := cg.Deps[0].(*rdd.NarrowDep); !ok {
			t.Fatalf("cached side: %T, want a narrow dependency", cg.Deps[0])
		}
		if _, ok := cg.Deps[1].(*rdd.ShuffleDep); !ok {
			t.Fatalf("loose side: %T, want a shuffle dependency", cg.Deps[1])
		}
		poke := cg.Map(func(r rdd.Row) rdd.Row {
			pr := r.(rdd.Pair)
			sides := pr.V.([][]any)
			n := len(append(sides, nil))
			for _, side := range sides {
				n += len(append(side, "marker"))
			}
			return rdd.Pair{K: pr.K, V: n}
		})
		return []*rdd.RDD{poke, join, join, cg}
	}
	lctx := rdd.NewContext(6)
	lctx.LogicalScale = 1000
	lctx.SetRunner(rdd.NewLocalRunner())
	var want [][]rdd.Row
	for _, r := range jobs(lctx) {
		rows, err := r.Collect()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rows)
	}

	h := newHarness(true, nil)
	canary := watchCache(h)
	for i, r := range jobs(h.ctx) {
		got, err := r.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("job %d (%s) diverged from the oracle:\n got %.300v\nwant %.300v", i, r.Op, got, want[i])
		}
	}
	if n := canary.check(t, h.eng.Cache); n < 8 {
		t.Fatalf("compared %d cached partitions, want the narrow side's 4 and the cogroup's 4", n)
	}
}

// TestAppendToAliasedInputReallocates pins the cap clamp: a source whose
// partitions carry spare capacity is cached, and two children each append a
// marker to their input. Without the clamp both appends would land in the
// cached backing array — invisible through the parent's length, but the
// second child's marker would overwrite the first's.
func TestAppendToAliasedInputReallocates(t *testing.T) {
	const n, spare = 5, 4
	h := newHarness(false, nil)
	canary := watchCache(h)
	src := h.ctx.Generate("roomy", 3, 1000, func(split, _ int) []rdd.Row {
		rows := make([]rdd.Row, n, n+spare)
		for i := range rows {
			rows[i] = split*100 + i
		}
		return rows
	}).Cache()
	tag := func(mark string) *rdd.RDD {
		return src.MapPartitions("tag-"+mark, 1, func(_ int, rows []rdd.Row) []rdd.Row { return append(rows, mark) })
	}
	first := tag("first").Cache()
	for _, r := range []*rdd.RDD{first, tag("second"), first} { // memoised alias, cached alias, re-read
		if c, err := r.Count(); err != nil || c != 3*(n+1) {
			t.Fatalf("count = %d, %v", c, err)
		}
	}
	for split := 0; split < 3; split++ {
		entry, ok := h.eng.Cache.Peek(storage.CacheKey{RDD: src.ID, Split: split, Of: 3})
		if !ok {
			t.Fatalf("source split %d not cached", split)
		}
		if len(entry.Rows) != n || cap(entry.Rows) != n+spare {
			t.Fatalf("source split %d: len %d cap %d, want %d and %d", split, len(entry.Rows), cap(entry.Rows), n, n+spare)
		}
		if got := entry.Rows[:n+1][n]; got != nil {
			t.Fatalf("source split %d: an append wrote %v into the cached backing array", split, got)
		}
	}
	if canary.check(t, h.eng.Cache) != 6 {
		t.Fatalf("want 3 source and 3 tagged partitions compared")
	}
}

// TestWorkloadsLeaveCachedPartitionsAlone runs each built-in workload at
// small scale, in both scheduling modes, under the canary — three times on
// one value, so the last run reads the source partitions the second
// recorded. Those are shared by every later run, so after the replayed
// run each must still be bit-equal to what its generator gives afresh.
func TestWorkloadsLeaveCachedPartitionsAlone(t *testing.T) {
	for _, w := range workloads.AllWithExtensions() {
		for _, coPart := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/copartition=%v", w.Name(), coPart), func(t *testing.T) {
				w, _ := workloads.ByName(w.Name()) // fresh instance: Shrink mutates
				workloads.Shrink(w, 10)
				var canary *cacheCanary
				for run := 0; run < 3; run++ {
					h := newHarness(coPart, nil)
					canary = watchCache(h)
					if _, err := w.Run(h.ctx, w.DefaultInputBytes()); err != nil {
						t.Fatal(err)
					}
					if n := canary.check(t, h.eng.Cache); n == 0 {
						t.Fatalf("run %d: no cached partition was compared", run+1)
					}
				}
				recorded := 0
				workloads.RecordedForTest(w, func(source string, split, splits int, rows []rdd.Row) {
					recorded++
					// %x prints a float's exact mantissa and exponent.
					if got, want := fmt.Sprintf("%x", rows), fmt.Sprintf("%x", canary.gens[source](split, splits)); got != want {
						t.Errorf("recorded %s split %d of %d differs from a fresh one:\n got %.300s\nwant %.300s", source, split, splits, got, want)
					}
				})
				if recorded == 0 {
					t.Fatal("three runs recorded no partition")
				}
			})
		}
	}
}
