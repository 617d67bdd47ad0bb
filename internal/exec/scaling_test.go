package exec

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"chopper/internal/cluster"
	"chopper/internal/core"
	"chopper/internal/dag"
	"chopper/internal/metrics"
	"chopper/internal/rdd"
	"chopper/internal/storage"
	"chopper/internal/workloads"
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
		scratch, tk := new(acct), new(task) // a task, its arena header with it, lives in the wave's slab
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

// checkOutputsOnly fails unless a run made wantObjs allocations and no
// bytes beyond its outputs: the cached-input profile lives in the worker's
// scratch.
func checkOutputsOnly(t *testing.T, what string, objs float64, wantObjs int, extra float64) {
	t.Helper()
	if objs != float64(wantObjs) || extra != 0 {
		t.Fatalf("%s: %v objects, %.0f bytes beyond the outputs; want %d and none", what, objs, extra, wantObjs)
	}
}

// TestNarrowMapAllocatesOnlyItsOutput: a Map over a cached partition reads
// the cached rows in place, so it allocates its output slice — nothing
// else.
func TestNarrowMapAllocatesOnlyItsOutput(t *testing.T) {
	for _, rows := range []int{1000, 4000} {
		e := testEngine()
		child := cachedBase(e, rows).Map(func(r rdd.Row) rdd.Row { return r })
		objs, bytes := materializeCost(t, e, child, rows)
		t.Logf("narrow map over %d rows: %v objects, %.0f bytes", rows, objs, bytes)
		checkOutputsOnly(t, fmt.Sprintf("narrow map over %d cached rows", rows), objs, 1, bytes-rowsBytes(rows))
	}
}

// TestPipelineDepthAddsNoBookkeeping: a task through k identity Maps over
// a cached partition allocates its k output slices and nothing else — the
// memo, the input windows, the one-to-one dependencies and the locality
// profiles cost nothing on a warm worker scratch.
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
		checkOutputsOnly(t, fmt.Sprintf("%d maps", k), objs, k, bytes-float64(k)*out)
	}
}

// TestFilterAllocatesOnlyItsOutput: a Filter over a cached partition
// allocates one output slice of exactly the kept rows; its keep bitmap
// stays on the stack up to 2048 rows.
func TestFilterAllocatesOnlyItsOutput(t *testing.T) {
	for _, rows := range []int{512, 2048} {
		e := testEngine()
		child := cachedBase(e, rows).Filter(func(r rdd.Row) bool { return r.(rdd.Pair).K.(int)%4 == 0 })
		objs, bytes := materializeCost(t, e, child, rows/4)
		t.Logf("filter over %d rows: %v objects, %.0f bytes", rows, objs, bytes)
		checkOutputsOnly(t, fmt.Sprintf("filter over %d cached rows", rows), objs, 1, bytes-rowsBytes(rows/4))
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
// A MapFloat → SumFloat result task allocates its one float64 column and
// the boxed partial sum; a MapFloatPairs map task under SumByKey's
// aggregator folds the worker's reused column block straight into its
// arena.
func TestTypedFoldTasksAllocateNoRows(t *testing.T) {
	sum := sumFloatFn(t)
	measure := func(rows int, fold bool) float64 {
		e := testEngine()
		workers := e.aliveSnapshot()
		base := cachedBase(e, rows)
		st := &dag.Stage{Final: base.MapFloat("score", 0.8, func(r rdd.Row) float64 { return r.(rdd.Pair).V.(float64) }), IsResult: true}
		if fold {
			fm := base.MapFloatPairs("fold", 1.2, func(k int, v float64) (int, float64, bool) {
				return k % 50, v / 2, true
			})
			st = &dag.Stage{Final: fm, OutDep: &rdd.ShuffleDep{P: fm, Part: rdd.NewHashPartitioner(64), Agg: rdd.SumAggregator()}}
		}
		scratch, tk := new(acct), new(task) // a task, its arena header with it, lives in the wave's slab
		return testing.AllocsPerRun(100, func() {
			*tk = task{stage: st}
			if err := e.computeTask(tk, workers, scratch); err != nil {
				t.Fatal(err)
			}
			if fold {
				var blk rdd.ColBlock
				if tk.mapOut.Cols.BlockInto(0, &blk); blk.Kind != rdd.ColIntF64 || tk.records != int64(rows) {
					t.Fatalf("map task: %d records, arena of kind %v", tk.records, blk.Kind)
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
// arena's three objects (its key and value segments and its non-empty
// bucket table; the header is in its task) and the payload sizes
// computeTask records, the same four objects at 1k and 20k rows. The
// source, the filter and the map compute into the worker's reused column
// blocks, and the generator's emit func comes from a pool.
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
		scratch, tk := new(acct), new(task) // a task, its arena header with it, lives in the wave's slab
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
		if got := measure(rows); got != 4 {
			t.Errorf("warm order-scan map task over %d rows: %v objects, want 4", rows, got)
		}
	}
}

// TestWarmPageRankIterationAllocatesOnlyItsMapOutput pins a warm map task
// of PageRank's iteration — the ranks' SumByKey shuffle read merged into a
// column block, MapFloatValues, JoinFlatMapFloatPairs' cogroup with the
// cached links, its join and its flatMap, SumByKey's map-side combine — at
// its map output: the arena's three objects and the payload sizes
// computeTask records, the same four objects at 1k and 8k pages. Every
// RDD of the chain computes into the worker's reused column blocks, and
// the locality profiles into the task's own array; no key, group or match
// is boxed.
func TestWarmPageRankIterationAllocatesOnlyItsMapOutput(t *testing.T) {
	measure := func(pages int) float64 {
		e := testEngine()
		workers := e.aliveSnapshot()
		part := rdd.NewHashPartitioner(1)
		links := e.Ctx.Generate("links", 1, 1<<20, nil).PartitionBy(part).Cache()
		adj := make([]rdd.Row, pages)
		for i := range adj {
			adj[i] = rdd.Pair{K: i, V: []int{(i*7 + 1) % pages, (i*13 + 2) % pages, (i + 3) % pages}}
		}
		e.Cache.Put(storage.CacheKey{RDD: links.ID, Split: 0, Of: 1}, "A", 1<<20, adj)

		// The last iteration's shuffle: one map task's contributions.
		prev := e.Ctx.GenerateFloatPairs("contribs", 1, 1<<20, func(_, _ int, emit func(int, float64)) {
			for i := range pages {
				emit(i, 1/float64(i+1))
			}
		})
		summed := prev.SumByKey(part)
		in := summed.Deps[0].(*rdd.ShuffleDep)
		in.ShuffleID = 1
		e.Shuffle.Register(1, 1, 1)
		mapTask := &task{stage: &dag.Stage{Final: prev, OutDep: in}}
		if err := e.computeTask(mapTask, workers, new(acct)); err != nil {
			t.Fatal(err)
		}
		e.Shuffle.PutMapOutput(1, 0, "A", mapTask.mapOut)

		ranks := summed.MapFloatValues(func(v float64) float64 { return 0.15 + 0.85*v })
		contribs := links.JoinFlatMapFloatPairs(ranks, part, func(_ int, left rdd.Row, rank float64, emit func(int, float64)) {
			out := left.([]int)
			for _, dst := range out {
				emit(dst, rank/float64(len(out)))
			}
		})
		st := &dag.Stage{Final: contribs, OutDep: &rdd.ShuffleDep{P: contribs, Part: part, Agg: rdd.SumAggregator()}}
		scratch, tk := new(acct), new(task) // a task, its arena header with it, lives in the wave's slab
		return testing.AllocsPerRun(100, func() {
			*tk = task{stage: st}
			if err := e.computeTask(tk, workers, scratch); err != nil {
				t.Fatal(err)
			}
			if tk.mapOut.Cols == nil || tk.records != int64(3*pages) || tk.shufBy == nil || tk.cacheBy == nil {
				t.Fatalf("map task: %d records of %d pages, arena %v", tk.records, pages, tk.mapOut.Cols != nil)
			}
		})
	}
	for _, pages := range []int{1000, 8000} {
		if got := measure(pages); got != 4 {
			t.Errorf("warm pagerank iteration map task over %d pages: %v objects, want 4", pages, got)
		}
	}
}

// TestTuneGridJobTaskCost pins the engine's per-task host cost at the top
// of the profiling grid, where tasks are many and rows few: a vanilla sql
// job at a twelfth of its rows with every stage forced to 600 hash
// partitions (4,200 tasks), warm — the source partitions replay and every
// pool is filled — allocates at most maxObjects heap objects per simulated
// task. What a task allocates is what it emits: its rows, its arena's
// table and segments, its payload sizes and the workload's own boxes, none
// of the engine's bookkeeping. It read 8,609 objects (2.050 per task), and
// up to 8,612 under GOGC=5; before the task-owned headers and profiles and
// the pooled merge header, 17,384 (4.139).
func TestTuneGridJobTaskCost(t *testing.T) {
	const maxObjects = 2.051
	w, err := workloads.ByName("sql")
	if err != nil {
		t.Fatal(err)
	}
	sql := w.(*workloads.SQL)
	sql.Orders /= 12
	sql.Customers /= 12
	tasks := 0
	run := func() {
		ctx := rdd.NewContext(300)
		col := metrics.NewCollector("sql", "spark")
		e := New(cluster.PaperCluster(), cluster.DefaultCostParams(), ctx, col, false)
		dag.NewScheduler(ctx, e).Configurator = &core.ForceAll{Spec: dag.SchemeSpec{Scheme: rdd.SchemeHash, NumPartitions: 600}}
		if _, err := sql.Run(ctx, sql.DefaultInputBytes()); err != nil {
			t.Fatal(err)
		}
		tasks = 0
		for _, st := range col.Stages() {
			tasks += len(st.Tasks)
		}
	}
	run() // record the source partitions; AllocsPerRun's own warm-up replays them
	objs := testing.AllocsPerRun(3, run)
	t.Logf("%v objects over %d tasks: %.3f per task", objs, tasks, objs/float64(tasks))
	if objs/float64(tasks) > maxObjects {
		t.Errorf("%v objects over %d simulated tasks: %.3f per task, want at most %v", objs, tasks, objs/float64(tasks), maxObjects)
	}
}

// Sinks keep the reference allocations below from being optimised away.
var (
	sinkIndex []int32
	sinkInts  []int64
	sinkF64   []float64
	sinkPtrs  []*int
)

// TestMapStageBytesPerTask pins what a warm map stage keeps per task
// beyond its arena's segments: the shuffle manager's record of the task
// and the pointer to it, the collector's TaskMetric and the task's payload
// sizes — 240 bytes on 64-bit targets (152 + 8 + 64 + 16). Each task
// reads two int-keyed rows from the cache and writes them to two buckets.
// A stage of 1,024 tasks and one of 2,048 are compared, so the per-stage
// constants cancel and every slab is whole pages but the record pointers',
// which is a small object with a malloc header: its growth is measured on
// a slab of as many pointers. On 64-bit targets the test also checks the
// sizes of the arena header, the task metric and an index entry.
func TestMapStageBytesPerTask(t *testing.T) {
	ptr := unsafe.Sizeof(uintptr(0))
	want := 160.0 // 4-byte pointers: an 80-byte record, the rest alike
	if ptr == 8 {
		want = 232
		for _, c := range []struct {
			what      string
			got, want uintptr
		}{
			{"arena header rdd.ColBuckets", unsafe.Sizeof(rdd.ColBuckets{}), 112},
			{"metrics.TaskMetric", unsafe.Sizeof(metrics.TaskMetric{}), 64},
			{"index entry rdd.BlockRef", unsafe.Sizeof(rdd.BlockRef{}), 8},
		} {
			if c.got != c.want {
				t.Errorf("%s is %d bytes, want %d", c.what, c.got, c.want)
			}
		}
	}
	stageBytes := func(tasks int) float64 {
		e := testEngine()
		e.ComputeWorkers = 1 // one worker scratch, taken and put back alike every run
		workers := e.aliveSnapshot()
		base := e.Ctx.Generate("base", tasks, 1<<20, nil).Cache()
		for split := 0; split < tasks; split++ {
			key := storage.CacheKey{RDD: base.ID, Split: split, Of: tasks}
			e.Cache.Put(key, workers[split%len(workers)].Name, 1<<10, []rdd.Row{rdd.Pair{K: 0, V: 1.0}, rdd.Pair{K: 1, V: 2.0}})
		}
		st := &dag.Stage{ID: 1, Final: base, OutDep: &rdd.ShuffleDep{P: base, ShuffleID: 1, Part: rdd.NewHashPartitioner(64)}}
		return bytesPerRun(5, func() {
			if _, err := e.runStages([]*dag.Stage{st}, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	// One task's arena segments: its bucket table over two buckets and its
	// key and value segments of two pairs.
	segments := bytesPerRun(100, func() {
		sinkIndex, sinkInts, sinkF64 = make([]int32, 5), make([]int64, 2), make([]float64, 2)
	})
	ptrs := func(n int) float64 { return bytesPerRun(100, func() { sinkPtrs = make([]*int, n) }) }
	perTask := (stageBytes(2048) - stageBytes(1024)) / 1024
	pointers := (ptrs(2048) - ptrs(1024)) / 1024
	got := perTask - segments - pointers
	t.Logf("%.3f bytes per map task: %.0f arena segments, %.3f the record pointer's slab, %.3f the rest", perTask, segments, pointers, got)
	if math.Abs(got-want) > 1e-6 { // the averages over runs are exact to far below a byte
		t.Errorf("a warm map stage keeps %.3f bytes per task beyond its arena's segments and the record pointers, want %v", got, want)
	}
}
