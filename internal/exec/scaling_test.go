package exec

import (
	"runtime"
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
// PartitionPairsCol and computeTask's sizing, allocates the same number of
// objects whether the shuffle has 150 or 900 reduce partitions, and its
// bytes grow by one int32 table — the arena's bucket boundaries — and
// nothing else.
func TestMapTaskCostFollowsRowsNotReducers(t *testing.T) {
	const rows = 40
	measure := func(numReduce int) (objects, bytes float64) {
		e := testEngine()
		src := e.Ctx.Generate("tiny", 1, 1<<20, func(_, _ int) []rdd.Row {
			out := make([]rdd.Row, rows)
			for i := range out {
				out[i] = rdd.Pair{K: i * 7919, V: 1.0}
			}
			return out
		})
		st := &dag.Stage{Final: src, OutDep: &rdd.ShuffleDep{P: src, Part: rdd.NewHashPartitioner(numReduce)}}
		run := func() {
			tk := task{stage: st}
			if err := e.computeTask(&tk); err != nil {
				t.Fatal(err)
			}
			if n := len(tk.mapOut.NonEmpty); n == 0 || n > rows || tk.mapOut.Cols == nil {
				t.Fatalf("map output lists %d non-empty buckets of a %d-row arena", n, rows)
			}
		}
		return testing.AllocsPerRun(100, run), bytesPerRun(100, run)
	}
	smallObjs, smallBytes := measure(150)
	largeObjs, largeBytes := measure(900)
	t.Logf("map task: %v objects, %.0f bytes at 150 reduce partitions; %v objects, %.0f bytes at 900", smallObjs, smallBytes, largeObjs, largeBytes)
	if smallObjs != largeObjs {
		t.Fatalf("objects per map task: %v at 150 reduce partitions, %v at 900; want the same", smallObjs, largeObjs)
	}
	// 4 B x 750 more boundaries, rounded up by the allocator's size classes.
	if grow := largeBytes - smallBytes; grow < 0 || grow > 4*750+1024 {
		t.Fatalf("bytes per map task grew by %.0f (%.0f -> %.0f) over 750 more reduce partitions; want at most one int32 table", grow, smallBytes, largeBytes)
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
