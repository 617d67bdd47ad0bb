package exec_test

import (
	"sync/atomic"
	"testing"

	"chopper/internal/rdd"
	"chopper/internal/workloads"
)

// hookCounter is a JobRunner that counts the calls the shuffle kernels make
// into every aggregator carrying the unboxed F64 hooks, so a test can tell
// which kernel tier a job's float sums really took: CreateF64 is called
// only by the combine kernels' f64 branch (for a map-side-combining
// aggregator), MergeCombinersF64 only by the F64 merges, and the boxed
// twins only when the rows left the unboxed tier.
type hookCounter struct {
	inner rdd.JobRunner
	seen  map[*rdd.Aggregator]bool

	createF64, mergeValueF64, mergeCombinersF64, boxed atomic.Int64
}

// RunJob implements rdd.JobRunner: it wraps the hooks of every F64-capable
// aggregator the job can reach, then runs the job on the real scheduler.
func (c *hookCounter) RunJob(target *rdd.RDD, fn func(int, []rdd.Row) (any, error)) ([]any, error) {
	for _, r := range target.Lineage() {
		for _, d := range r.Deps {
			sd, ok := d.(*rdd.ShuffleDep)
			if !ok || sd.Agg == nil || sd.Agg.CreateF64 == nil || c.seen[sd.Agg] {
				continue
			}
			c.seen[sd.Agg] = true
			a, was := sd.Agg, *sd.Agg
			a.CreateF64 = func(v float64) float64 { c.createF64.Add(1); return was.CreateF64(v) }
			a.MergeValueF64 = func(x, v float64) float64 { c.mergeValueF64.Add(1); return was.MergeValueF64(x, v) }
			a.MergeCombinersF64 = func(x, y float64) float64 { c.mergeCombinersF64.Add(1); return was.MergeCombinersF64(x, y) }
			a.Create = func(v any) any { c.boxed.Add(1); return was.Create(v) }
			a.MergeValue = func(x, v any) any { c.boxed.Add(1); return was.MergeValue(x, v) }
			a.MergeCombiners = func(x, y any) any { c.boxed.Add(1); return was.MergeCombiners(x, y) }
		}
	}
	return c.inner.RunJob(target, fn)
}

// TestBuiltinSumsTakeUnboxedTier: the float sums of the sql and pagerank
// built-ins run through the unboxed kernel tier on both shuffle sides —
// colCombineInt's f64 branch and foldRefsF64 (their keys are ints) —
// and never through the boxed twins. Before SumByKey no engine-driven
// workload reached that tier at all.
func TestBuiltinSumsTakeUnboxedTier(t *testing.T) {
	for _, name := range []string{"sql", "pagerank"} {
		for _, coPart := range []bool{false, true} {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			workloads.Shrink(w, 10)
			h := newHarness(coPart, nil)
			c := &hookCounter{inner: h.sch, seen: map[*rdd.Aggregator]bool{}}
			h.ctx.SetRunner(c)
			if _, err := w.Run(h.ctx, w.DefaultInputBytes()); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s copartition=%v: %d sum aggregators; CreateF64 %d, MergeValueF64 %d, MergeCombinersF64 %d, boxed %d",
				name, coPart, len(c.seen), c.createF64.Load(), c.mergeValueF64.Load(), c.mergeCombinersF64.Load(), c.boxed.Load())
			if len(c.seen) == 0 || c.createF64.Load() == 0 || c.mergeValueF64.Load() == 0 {
				t.Errorf("%s: the map-side F64 combine (colCombineInt's f64 branch) was not entered", name)
			}
			if c.mergeCombinersF64.Load() == 0 {
				t.Errorf("%s: the reduce-side F64 merge (foldRefsF64) was not entered", name)
			}
			if n := c.boxed.Load(); n != 0 {
				t.Errorf("%s: %d calls reached the boxed twins of a sum aggregator", name, n)
			}
		}
	}
}
