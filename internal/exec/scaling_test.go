package exec

import (
	"fmt"
	"runtime"
	"testing"

	"chopper/internal/dag"
	"chopper/internal/rdd"
	"chopper/internal/storage"
)

// bytesPerRun reports the heap bytes one call of f allocates, from the
// runtime's cumulative counter (no timing, so it reads the same on any
// machine). Like testing.AllocsPerRun it runs at GOMAXPROCS 1, so other
// goroutines hardly add to the count.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
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
