// Package driver is the experiment harness's worker pool: it executes the
// independent runs of a sweep (motivation partition counts, evaluation
// workloads, ablation rows, and — through chopper.Tuner.ProfileContext —
// profiling-grid points) concurrently with bounded parallelism while keeping
// every observable result byte-identical to a sequential execution.
//
// The determinism argument is structural, not accidental:
//
//   - every job builds its own full stack (context, engine, scheduler,
//     collector) — no state is shared between sweep points;
//   - each job's simulated clock depends only on its own inputs, so running
//     jobs concurrently cannot perturb any job's trace;
//   - results land in an index-addressed slice, never in completion order,
//     and error selection is by lowest index, so the caller sees exactly
//     what the sequential loop would have returned;
//   - cross-run mutable state (the workload DB, printed tables) is written
//     by the caller AFTER the pool drains, in index order.
//
// The chopperlint sharedescape/globalrand gates and the race-detector run in
// ci.sh keep this honest as the harness grows.
package driver

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultParallel is the process-wide parallelism for Map/Run when the
// caller does not pass an explicit width. Zero means GOMAXPROCS.
var defaultParallel atomic.Int64

// SetParallelism sets the process-wide default worker count used by Map and
// Run (the -parallel flag of cmd/experiments). n <= 0 resets to the
// GOMAXPROCS default.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	defaultParallel.Store(int64(n))
}

// Parallelism reports the effective default worker count.
func Parallelism() int {
	if n := int(defaultParallel.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(0..n-1) on the default worker pool width and returns the
// results in index order. See MapWith.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapWith[T](Parallelism(), n, fn)
}

// MapWith runs fn(0..n-1) with at most parallel concurrent invocations and
// returns one result per index, in index order. If any invocations fail, the
// error of the lowest failing index is returned — the same error a
// sequential loop would surface — together with the partial results.
// parallel <= 1 degenerates to a plain sequential loop on the caller's
// goroutine (no spawns), which is the reference behavior the parallel path
// must reproduce bit for bit.
func MapWith[T any](parallel, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	errs := make([]error, n)
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			results[i], errs[i] = fn(i)
			if errs[i] != nil {
				return results, errs[i]
			}
		}
		return results, nil
	}
	if parallel > n {
		parallel = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func(results []T, errs []error) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = fn(i)
			}
		}(results, errs)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Run is Map for jobs without a result value.
func Run(n int, fn func(i int) error) error {
	_, err := Map[struct{}](n, func(i int) (struct{}, error) { return struct{}{}, fn(i) })
	return err
}
