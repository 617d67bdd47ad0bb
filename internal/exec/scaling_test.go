package exec

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"chopper/internal/dag"
	"chopper/internal/rdd"
	"chopper/internal/storage"
)

// bytesPerRun reports the heap bytes one call of f allocates, from the
// runtime's cumulative counter (no timing, so it reads the same on any
// machine). Like testing.AllocsPerRun it runs at GOMAXPROCS 1, so other
// goroutines hardly add to the count. The counter books small pointer-free
// objects by the 16-byte tiny block they open, and a collection retires
// the open block: one landing inside the window adds up to a block's worth,
// so the window starts right after a collection and holds the next off.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestMapTaskCostFollowsRowsNotReducers is the machine-independent scaling
// guard of the map side: one task of 40 int-keyed rows, through
// PartitionPairsCol and computeTask's sizing, allocates the same objects
// and the same bytes at 150, 900 and 9,000 reduce partitions — the arena
// records its non-empty buckets only and the per-bucket cursor is pooled.
// The keys land in 40 distinct buckets at every count, so each arena lists
// the same number.
func TestMapTaskCostFollowsRowsNotReducers(t *testing.T) {
	const rows = 40
	counts := []int{150, 900, 9000}
	var keys []int
	taken := make([]map[int]bool, len(counts))
	for i := range taken {
		taken[i] = map[int]bool{}
	}
next:
	for k := 0; len(keys) < rows; k += 7919 {
		for i, n := range counts {
			if taken[i][rdd.NewHashPartitioner(n).PartitionFor(k)] {
				continue next
			}
		}
		for i, n := range counts {
			taken[i][rdd.NewHashPartitioner(n).PartitionFor(k)] = true
		}
		keys = append(keys, k)
	}
	measure := func(numReduce int) (objects, bytes float64) {
		e := testEngine()
		workers := e.aliveSnapshot()
		src := e.Ctx.Generate("tiny", 1, 1<<20, func(_, _ int) []rdd.Row {
			out := make([]rdd.Row, rows)
			for i := range out {
				out[i] = rdd.Pair{K: keys[i], V: 1.0}
			}
			return out
		})
		st := &dag.Stage{Final: src, OutDep: &rdd.ShuffleDep{P: src, Part: rdd.NewHashPartitioner(numReduce)}}
		scratch, tk := new(acct), new(task) // a task lives in the wave's slab
		run := func() {
			*tk = task{stage: st}
			if err := e.computeTask(tk, workers, scratch); err != nil {
				t.Fatal(err)
			}
			if n := len(tk.mapOut.NonEmpty); n != rows || tk.mapOut.Cols == nil {
				t.Fatalf("map output lists %d non-empty buckets of a %d-row arena, want %d", n, rows, rows)
			}
		}
		return testing.AllocsPerRun(100, run), bytesPerRun(100, run)
	}
	objs, bytes := measure(counts[0])
	t.Logf("map task: %v objects, %.0f bytes at %d reduce partitions", objs, bytes, counts[0])
	for _, n := range counts[1:] {
		if o, b := measure(n); o != objs || b != bytes {
			t.Fatalf("map task: %v objects, %.0f bytes at %d reduce partitions; %v, %.0f at %d; want the same", objs, bytes, counts[0], o, b, n)
		}
	}
}

// sinkRows keeps rowsBytes' allocation from being optimised away.
var sinkRows []rdd.Row

// rowsBytes reports what one n-row output slice costs the heap: 16 B per
// row, plus the allocator's header and size-class rounding.
func rowsBytes(n int) float64 {
	return bytesPerRun(100, func() { sinkRows = make([]rdd.Row, n) })
}

// cachedBase returns a one-partition RDD whose only partition, rows
// int-keyed pairs, the engine's cache holds on node A.
func cachedBase(e *Engine, rows int) *rdd.RDD {
	base := e.Ctx.Generate("base", 1, 1<<20, nil).Cache()
	cached := make([]rdd.Row, rows)
	for i := range cached {
		cached[i] = rdd.Pair{K: i, V: 1.0}
	}
	e.Cache.Put(storage.CacheKey{RDD: base.ID, Split: 0, Of: 1}, "A", 1<<20, cached)
	return base
}

// materializeCost measures what materializing split 0 of r allocates on a
// reused worker scratch, as the compute pass does it: objects and bytes
// per run, with the scratch released after each.
func materializeCost(t *testing.T, e *Engine, r *rdd.RDD, wantRows int) (objects, bytes float64) {
	scratch := new(acct)
	run := func() {
		out, _, err := e.materialize(r, 0, scratch)
		release(scratch)
		if err != nil || len(out) != wantRows {
			t.Fatalf("materialized %d rows, %v; want %d", len(out), err, wantRows)
		}
	}
	return testing.AllocsPerRun(100, run), bytesPerRun(100, run)
}

// profileBytes bounds the one allocation a task over a cached partition
// makes besides its outputs: the one-entry cached-input profile (24 B).
const profileBytes = 32

// checkOutputsOnly fails unless a run made wantObjs allocations and, in
// bytes beyond its outputs, at most the cached-input profile.
func checkOutputsOnly(t *testing.T, what string, objs float64, wantObjs int, extra float64) {
	t.Helper()
	if objs != float64(wantObjs) || extra < 0 || extra > profileBytes {
		t.Fatalf("%s: %v objects, %.0f bytes beyond the outputs; want %d and at most %d", what, objs, extra, wantObjs, profileBytes)
	}
}

// TestNarrowMapAllocatesOnlyItsOutput: a Map over a cached partition reads
// the cached rows in place, so it allocates its output slice plus the
// cached-input profile — nothing else.
func TestNarrowMapAllocatesOnlyItsOutput(t *testing.T) {
	for _, rows := range []int{1000, 4000} {
		e := testEngine()
		child := cachedBase(e, rows).Map(func(r rdd.Row) rdd.Row { return r })
		objs, bytes := materializeCost(t, e, child, rows)
		t.Logf("narrow map over %d rows: %v objects, %.0f bytes", rows, objs, bytes)
		checkOutputsOnly(t, fmt.Sprintf("narrow map over %d cached rows", rows), objs, 2, bytes-rowsBytes(rows))
	}
}

// TestPipelineDepthAddsNoBookkeeping: a task through k identity Maps over
// a cached partition allocates its k output slices and a constant that
// does not depend on k — the memo, the input windows and the one-to-one
// dependencies cost nothing per pipelined RDD on a warm worker scratch.
func TestPipelineDepthAddsNoBookkeeping(t *testing.T) {
	const rows = 500
	e := testEngine()
	base := cachedBase(e, rows)
	workers := e.aliveSnapshot()
	out := rowsBytes(rows)
	for _, k := range []int{1, 4, 8} {
		r := base
		for range k {
			r = r.Map(func(r rdd.Row) rdd.Row { return r })
		}
		st := &dag.Stage{Final: r}
		scratch, tk := new(acct), new(task) // a task lives in the wave's slab
		run := func() {
			*tk = task{stage: st}
			if err := e.computeTask(tk, workers, scratch); err != nil || len(tk.rows) != rows {
				t.Fatalf("task computed %d rows, %v", len(tk.rows), err)
			}
		}
		objs, bytes := testing.AllocsPerRun(100, run), bytesPerRun(100, run)
		t.Logf("k=%d: %v objects, %.0f bytes", k, objs, bytes)
		checkOutputsOnly(t, fmt.Sprintf("%d maps", k), objs, k+1, bytes-float64(k)*out)
	}
}

// TestFilterAllocatesOnlyItsOutput: a Filter over a cached partition
// allocates one output slice of exactly the kept rows plus the
// cached-input profile; its keep bitmap stays on the stack up to 2048 rows.
func TestFilterAllocatesOnlyItsOutput(t *testing.T) {
	for _, rows := range []int{512, 2048} {
		e := testEngine()
		child := cachedBase(e, rows).Filter(func(r rdd.Row) bool { return r.(rdd.Pair).K.(int)%4 == 0 })
		objs, bytes := materializeCost(t, e, child, rows/4)
		t.Logf("filter over %d rows: %v objects, %.0f bytes", rows, objs, bytes)
		checkOutputsOnly(t, fmt.Sprintf("filter over %d cached rows", rows), objs, 2, bytes-rowsBytes(rows/4))
	}
}

// sumFloatFn returns the per-partition closure SumFloat hands its job
// runner, captured by a stub runner on a throwaway context.
func sumFloatFn(t *testing.T) func(int, []rdd.Row) (any, error) {
	ctx := rdd.NewContext(1)
	stub := &stubRunner{}
	ctx.SetRunner(stub)
	if _, err := ctx.Generate("none", 1, 1, nil).SumFloat(); err != nil {
		t.Fatal(err)
	}
	return stub.fn
}

// stubRunner records the closure of the one job it is handed and returns
// a zero partial sum.
type stubRunner struct {
	fn func(int, []rdd.Row) (any, error)
}

func (s *stubRunner) RunJob(_ *rdd.RDD, fn func(int, []rdd.Row) (any, error)) ([]any, error) {
	s.fn = fn
	return []any{0.0}, nil
}

// TestTypedFoldTasksAllocateNoRows: a task whose rows exist only to be
// folded allocates the same objects at 1k and 10k rows — none per row.
// A MapFloat → SumFloat result task allocates its one float64 column, the
// cached-input profile and the boxed partial sum; a FlatMapFloatPairs map
// task under SumByKey's aggregator folds the worker's reused column block
// straight into its arena.
func TestTypedFoldTasksAllocateNoRows(t *testing.T) {
	sum := sumFloatFn(t)
	measure := func(rows int, fold bool) float64 {
		e := testEngine()
		workers := e.aliveSnapshot()
		base := cachedBase(e, rows)
		st := &dag.Stage{Final: base.MapFloat("score", 0.8, func(r rdd.Row) float64 { return r.(rdd.Pair).V.(float64) }), IsResult: true}
		if fold {
			fm := base.FlatMapFloatPairs(func(r rdd.Row, emit func(int, float64)) {
				k := r.(rdd.Pair).K.(int)
				emit(k%50, 1)
				emit(k%50+50, 0.5)
			})
			st = &dag.Stage{Final: fm, OutDep: &rdd.ShuffleDep{P: fm, Part: rdd.NewHashPartitioner(64), Agg: rdd.SumAggregator()}}
		}
		scratch, tk := new(acct), new(task) // a task lives in the wave's slab
		return testing.AllocsPerRun(100, func() {
			*tk = task{stage: st}
			if err := e.computeTask(tk, workers, scratch); err != nil {
				t.Fatal(err)
			}
			if fold {
				if tk.mapOut.Cols == nil || tk.records != int64(2*rows) {
					t.Fatalf("map task: %d records, arena %v", tk.records, tk.mapOut.Cols != nil)
				}
				return
			}
			if s, err := sum(0, tk.rows); err != nil || s.(float64) != float64(rows) || tk.records != int64(rows) {
				t.Fatalf("result task: sum %v, %v, %d records; want %d", s, err, tk.records, rows)
			}
		})
	}
	for _, fold := range []bool{false, true} {
		small, large := measure(1000, fold), measure(10000, fold)
		t.Logf("fold into arena %v: %v objects at 1k rows, %v at 10k", fold, small, large)
		if small != large {
			t.Errorf("fold into arena %v: %v objects at 1k rows, %v at 10k; want the same", fold, small, large)
		}
	}
}

// TestWarmOrderScanAllocatesOnlyItsMapOutput pins a warm map task of SQL's
// order-scan shape — a GenerateFloatPairs source, a filter and a map by
// MapFloatPairs, SumByKey's map-side combine — at its map output: the
// arena's four objects (the ColBuckets, its key and value segments and its
// non-empty bucket list) and the payload sizes computeTask records, the
// same five objects at 1k and 20k rows. The source, the filter and the map
// compute into the worker's reused column blocks, and the generator's emit
// func comes from a pool.
func TestWarmOrderScanAllocatesOnlyItsMapOutput(t *testing.T) {
	const keys = 64
	measure := func(rows int) float64 {
		e := testEngine()
		workers := e.aliveSnapshot()
		src := e.Ctx.GenerateFloatPairs("orders", 1, 1<<20, func(_, _ int, emit func(int, float64)) {
			for i := range rows {
				emit(1000+(i%keys)*7919, float64(i%97))
			}
		})
		mapped := src.
			MapFloatPairs("filter", 0.4, func(k int, v float64) (int, float64, bool) { return k, v, v >= 20 }).
			MapFloatPairs("projectOrder", 8.0, func(k int, v float64) (int, float64, bool) { return k, v, true })
		st := &dag.Stage{Final: mapped, OutDep: &rdd.ShuffleDep{P: mapped, Part: rdd.NewHashPartitioner(8), Agg: rdd.SumAggregator()}}
		scratch, tk := new(acct), new(task) // a task lives in the wave's slab
		return testing.AllocsPerRun(100, func() {
			*tk = task{stage: st}
			if err := e.computeTask(tk, workers, scratch); err != nil {
				t.Fatal(err)
			}
			if tk.mapOut.Cols == nil || tk.records == 0 || tk.records >= int64(rows) {
				t.Fatalf("map task: %d records of %d rows, arena %v", tk.records, rows, tk.mapOut.Cols != nil)
			}
		})
	}
	for _, rows := range []int{1000, 20000} {
		if got := measure(rows); got != 5 {
			t.Errorf("warm order-scan map task over %d rows: %v objects, want 5", rows, got)
		}
	}
}
