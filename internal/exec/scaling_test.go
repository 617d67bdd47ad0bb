package exec

import (
	"runtime"
	"runtime/debug"
	"testing"

	"chopper/internal/dag"
	"chopper/internal/rdd"
	"chopper/internal/storage"
)

// bytesPerRun reports the heap bytes one call of f allocates, from the
// runtime's cumulative counter (no timing, so it reads the same on any
// machine).
func bytesPerRun(runs int, f func()) float64 {
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
// the same number. The collector is off for the measurement because it
// empties sync.Pools.
func TestMapTaskCostFollowsRowsNotReducers(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
		run := func() {
			tk := task{stage: st}
			if err := e.computeTask(&tk, workers); err != nil {
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

// TestNarrowMapAllocatesOnlyItsOutput: a Map over a cached partition reads
// the cached rows in place, so it allocates its output slice (16 B per row)
// plus a constant — nothing else that grows with the input.
func TestNarrowMapAllocatesOnlyItsOutput(t *testing.T) {
	measure := func(rows int) (objects, bytes float64) {
		e := testEngine()
		base := e.Ctx.Generate("base", 1, 1<<20, nil).Cache()
		cached := make([]rdd.Row, rows)
		for i := range cached {
			cached[i] = rdd.Pair{K: i, V: 1.0}
		}
		e.Cache.Put(storage.CacheKey{RDD: base.ID, Split: 0, Of: 1}, "A", 1<<20, cached)
		child := base.Map(func(r rdd.Row) rdd.Row { return r })
		run := func() {
			var a acct
			if out, _, err := e.materialize(child, 0, &a); err != nil || len(out) != rows {
				t.Fatalf("materialized %d rows, %v", len(out), err)
			}
		}
		return testing.AllocsPerRun(100, run), bytesPerRun(100, run)
	}
	objs1k, bytes1k := measure(1000)
	objs4k, bytes4k := measure(4000)
	t.Logf("narrow map: %v objects, %.0f bytes over 1000 rows; %v objects, %.0f bytes over 4000", objs1k, bytes1k, objs4k, bytes4k)
	if objs1k != objs4k {
		t.Fatalf("objects per narrow map: %v over 1000 rows, %v over 4000; want the same", objs1k, objs4k)
	}
	for rows, got := range map[int]float64{1000: bytes1k, 4000: bytes4k} {
		// The allocator rounds a large slice up to its size class (< 1/8).
		if out := float64(16 * rows); got < out || got > out+out/8+1024 {
			t.Fatalf("narrow map over %d cached rows allocated %.0f bytes; want its %.0f-byte output slice plus a constant", rows, got, out)
		}
	}
}
