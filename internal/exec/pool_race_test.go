package exec_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"chopper/internal/rdd"
)

// TestComputePoolParallelRuns is the race-regression guard for the engine's
// worker-goroutine pool: several engines execute join-heavy cached
// pipelines from parallel subtests with an oversized ComputeWorkers, so the
// compute pass's fan-out, the shared shuffle manager, the memory store and
// the block store are all hammered concurrently. Under `go test -race
// ./internal/exec` (part of ci.sh) any access to engine state that bypasses
// the mutexes fails loudly; without -race the test still pins result
// correctness against the single-threaded oracle.
func TestComputePoolParallelRuns(t *testing.T) {
	add := func(a, b any) any { return a.(float64) + b.(float64) }
	for i := 0; i < 6; i++ {
		t.Run(fmt.Sprintf("pipeline%d", i), func(t *testing.T) {
			t.Parallel()
			h := newHarness(i%2 == 0, nil)
			h.eng.ComputeWorkers = 16

			build := func(ctx *rdd.Context) *rdd.RDD {
				left := pairSource(ctx, 1500, 37).
					ReduceByKey(add, 24).
					Cache()
				right := pairSource(ctx, 900, 37).
					MapValues(func(v any) any { return v.(float64) * 2 }).
					ReduceByKey(add, 0)
				return left.Join(right, nil).MapValues(func(v any) any {
					jv := v.(rdd.JoinedValue)
					return jv.Left.(float64) + jv.Right.(float64)
				})
			}
			got := sumByKey(t, build(h.ctx))
			// A second job on the same engine re-materializes the cached
			// reduce output, exercising the concurrent cache-read path.
			again := sumByKey(t, build(h.ctx))

			lctx := rdd.NewContext(6)
			lctx.LogicalScale = 1000
			lctx.SetRunner(rdd.NewLocalRunner())
			want := sumByKey(t, build(lctx))

			if !reflect.DeepEqual(got, want) {
				t.Fatalf("first run diverged from oracle:\n got %v\nwant %v", got, want)
			}
			if !reflect.DeepEqual(again, want) {
				t.Fatalf("cached re-run diverged from oracle:\n got %v\nwant %v", again, want)
			}
		})
	}
}

// TestSlabPoolAcrossEngines: the task and error slabs come from pools
// every engine in the process shares, and the experiments driver runs
// sweep points — one engine each — concurrently. Two engines run
// multi-wave jobs at once, repeatedly; a slab handed to two waves at once
// or reused before it was cleared shows as a result that differs from the
// oracle, and under -race as a reported race.
func TestSlabPoolAcrossEngines(t *testing.T) {
	add := func(a, b any) any { return a.(float64) + b.(float64) }
	build := func(ctx *rdd.Context, parts int) *rdd.RDD {
		return pairSource(ctx, 900, 41).
			ReduceByKey(add, parts).
			MapValues(func(v any) any { return v.(float64) + 1 }).
			ReduceByKey(add, parts/2)
	}
	lctx := rdd.NewContext(6)
	lctx.SetRunner(rdd.NewLocalRunner())
	want := sumByKey(t, build(lctx, 12))

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := newHarness(g == 0, nil)
			h.eng.ComputeWorkers = 3
			for job := 0; job < 6; job++ {
				got, err := build(h.ctx, 12+8*g+job).CollectPairsMap()
				if err != nil {
					t.Errorf("engine %d job %d: %v", g, job, err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("engine %d job %d diverged from the oracle:\n got %v\nwant %v", g, job, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
