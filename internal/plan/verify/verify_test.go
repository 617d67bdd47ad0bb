package verify_test

import (
	"strings"
	"testing"

	"chopper/internal/cluster"
	"chopper/internal/config"
	"chopper/internal/dag"
	"chopper/internal/plan/verify"
	"chopper/internal/rdd"
)

func add(a, b any) any { return a.(float64) + b.(float64) }

// pairSource builds a re-splittable keyed source of logicalBytes over n parts.
func pairSource(ctx *rdd.Context, name string, n int, logicalBytes int64) *rdd.RDD {
	return ctx.Generate(name, n, logicalBytes, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: split, V: 1.0}, rdd.Pair{K: split + total, V: 2.0}}
	})
}

// checks extracts the set of violated check names.
func checks(vs []verify.Violation) map[string]int {
	out := map[string]int{}
	for _, v := range vs {
		out[v.Check]++
	}
	return out
}

// wantCheck asserts at least one violation of the named check and no panic-y
// empty results.
func wantCheck(t *testing.T, vs []verify.Violation, name string) {
	t.Helper()
	if len(vs) == 0 {
		t.Fatalf("expected %q violation, verifier accepted the plan", name)
	}
	if checks(vs)[name] == 0 {
		t.Fatalf("expected %q violation, got %v", name, vs)
	}
}

// TestAcceptsRealPlans runs the verifier over plans built through the public
// RDD API — the shapes the built-in workloads produce — and expects silence.
func TestAcceptsRealPlans(t *testing.T) {
	lim := verify.DefaultLimits(nil)
	ctx := rdd.NewContext(4)

	plans := map[string]*rdd.RDD{
		"map-reduce": pairSource(ctx, "a", 4, 1e9).
			MapValues(func(v any) any { return v.(float64) * 2 }).
			ReduceByKey(add, 8),
		"join": pairSource(ctx, "b", 4, 1e9).
			Join(pairSource(ctx, "c", 4, 1e9), nil).
			ReduceByKey(func(a, b any) any { return a }, 6),
		"copartitioned-join": func() *rdd.RDD {
			p := rdd.NewHashPartitioner(6)
			l := pairSource(ctx, "e", 4, 1e9).ReduceByKeyPart(add, p)
			r := pairSource(ctx, "f", 4, 1e9).ReduceByKeyPart(add, p)
			return l.Join(r, p)
		}(),
	}
	for name, final := range plans {
		if vs := verify.Plan(final, nil, lim); len(vs) > 0 {
			t.Errorf("%s: clean plan rejected: %v", name, vs)
		}
	}
}

// localStages runs a job's stages on the single-threaded reference
// evaluator. A map stage needs no work, because LocalRunner computes a
// shuffle when it is read, so a job is planned, configured, verified and
// range-sampled as on the engine.
type localStages struct{ *rdd.LocalRunner }

func (localStages) RunWave([]*dag.Stage) error { return nil }

func (l localStages) RunResult(st *dag.Stage, fn func(int, []rdd.Row) (any, error)) ([]any, error) {
	return l.RunJob(st.Final, fn)
}

func (localStages) CachedComplete(*rdd.RDD) bool { return false }

// runRanged runs final as a tuned job under the strict verifier, asking
// for range partitioning the way a trained configuration does: every stage
// reading a shuffle in ranged gets a config.Static entry with Scheme range
// and that shuffle's partition count.
func runRanged(final *rdd.RDD, ranged map[*rdd.ShuffleDep]int, lim verify.Limits) error {
	f := &config.File{}
	_, topo := dag.BuildPlan(final, nil)
	for _, st := range topo {
		for _, dep := range st.InDeps {
			if n, ok := ranged[dep]; ok {
				f.Set(config.Entry{Signature: st.Signature, Scheme: rdd.SchemeRange, NumPartitions: n})
			}
		}
	}
	sch := dag.NewScheduler(final.Ctx, localStages{rdd.NewLocalRunner()})
	sch.Configurator = &config.Static{F: f}
	sch.Verify = verify.Hook(lim)
	_, err := final.Count()
	return err
}

// TestAcceptsConfiguredRangePlan configures a reduce stage as range
// partitioned: the verifier accepts the plan with its bounds still
// pending, and again once the scheduler has sampled them. A dependency
// that wants range bounds but carries a hash partitioner is rejected.
func TestAcceptsConfiguredRangePlan(t *testing.T) {
	lim := verify.DefaultLimits(nil)
	ctx := rdd.NewContext(4)
	red := pairSource(ctx, "d", 4, 1e9).ReduceByKey(add, 0)
	dep := red.Deps[0].(*rdd.ShuffleDep)
	if err := runRanged(red, map[*rdd.ShuffleDep]int{dep: 4}, lim); err != nil {
		t.Fatalf("configured range plan rejected: %v", err)
	}
	if rp, ok := dep.Part.(*rdd.RangePartitioner); !ok || len(rp.Bounds()) == 0 || dep.WantRange {
		t.Fatalf("range bounds not sampled: %T WantRange=%v", dep.Part, dep.WantRange)
	}
	if vs := verify.Plan(red, nil, lim); len(vs) > 0 {
		t.Fatalf("sampled range plan rejected: %v", vs)
	}

	dep.Part, dep.WantRange = rdd.NewHashPartitioner(red.NumParts), true
	red.Part = dep.Part
	vs := verify.Plan(red, nil, lim)
	wantCheck(t, vs, "partitioner-compat")
	if len(vs) != 1 || !strings.Contains(vs[0].Msg, "wants range bounds") {
		t.Fatalf("want one wants-range violation, got %v", vs)
	}
}

// TestRejectsCyclicLineage corrupts an RDD graph with a back edge; the
// verifier must report it without building stages (which would not
// terminate).
func TestRejectsCyclicLineage(t *testing.T) {
	ctx := rdd.NewContext(4)
	a := pairSource(ctx, "a", 4, 1e9)
	b := a.MapValues(func(v any) any { return v })
	a.Deps = append(a.Deps, &rdd.NarrowDep{P: b}) // cycle: a -> b -> a

	wantCheck(t, verify.Plan(b, nil, verify.DefaultLimits(nil)), "acyclic")
}

// TestRejectsCyclicStageGraph hand-builds two stages that claim each other
// as parents — a graph dag.buildStages can never emit.
func TestRejectsCyclicStageGraph(t *testing.T) {
	ctx := rdd.NewContext(2)
	r := pairSource(ctx, "a", 2, 1e6)
	dep := &rdd.ShuffleDep{P: r, Part: rdd.NewHashPartitioner(2)}
	s1 := &dag.Stage{Final: r, OutDep: dep, Signature: "s1"}
	s2 := &dag.Stage{Final: r, Signature: "s2", IsResult: true}
	s1.Parents = []*dag.Stage{s2}
	s1.InDeps = []*rdd.ShuffleDep{dep}
	s2.Parents = []*dag.Stage{s1}
	s2.InDeps = []*rdd.ShuffleDep{dep}

	wantCheck(t, verify.Stages(s2, []*dag.Stage{s1, s2}, verify.DefaultLimits(nil)), "acyclic")
}

// TestRejectsMisPartitionedJoin builds a real cogroup and then swaps one
// input shuffle's partitioner for a foreign one — the co-partitioning bug
// class the verifier exists for.
func TestRejectsMisPartitionedJoin(t *testing.T) {
	ctx := rdd.NewContext(4)
	a := pairSource(ctx, "a", 4, 1e9)
	b := pairSource(ctx, "b", 4, 1e9)
	j := a.Join(b, nil)

	// Join is a narrow child of the cogroup node.
	cg := j.Deps[0].(*rdd.NarrowDep).P
	if cg.Op != "cogroup" {
		t.Fatalf("expected cogroup parent, got %q", cg.Op)
	}
	corrupted := false
	for _, d := range cg.Deps {
		if sd, ok := d.(*rdd.ShuffleDep); ok {
			sd.Part = rdd.NewHashPartitioner(cg.NumParts + 3)
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no shuffle dep to corrupt")
	}
	wantCheck(t, verify.Plan(j, nil, verify.DefaultLimits(nil)), "copartition")
}

// TestRejectsOverBudgetPartitions covers both bounds: a partition too large
// for the executor storage pool, and a partition count beyond the limit.
func TestRejectsOverBudgetPartitions(t *testing.T) {
	lim := verify.DefaultLimits(cluster.PaperCluster())

	t.Run("bytes", func(t *testing.T) {
		ctx := rdd.NewContext(2)
		// 2 TB over 2 partitions: 1 TB per partition dwarfs the 24 GB pool.
		huge := pairSource(ctx, "huge", 2, 2e12).
			MapValues(func(v any) any { return v })
		wantCheck(t, verify.Plan(huge, nil, lim), "partition-bounds")
	})

	t.Run("count", func(t *testing.T) {
		ctx := rdd.NewContext(2)
		wide := pairSource(ctx, "wide", 2, 1e9).ReduceByKey(add, lim.MaxPartitions+1)
		wantCheck(t, verify.Plan(wide, nil, lim), "partition-bounds")
	})
}

// TestRejectsBadRangeBounds feeds the verifier range partitioners with
// unsorted and mutually incomparable bounds (states the sampling constructor
// can never produce, but a buggy configurator could).
func TestRejectsBadRangeBounds(t *testing.T) {
	build := func(p rdd.Partitioner) *rdd.RDD {
		ctx := rdd.NewContext(4)
		src := pairSource(ctx, "a", 4, 1e9)
		return src.ReduceByKeyPart(add, p)
	}

	t.Run("unsorted", func(t *testing.T) {
		p := rdd.NewRangePartitionerWithBounds(4, []any{3.0, 1.0, 2.0})
		vs := verify.Plan(build(p), nil, verify.DefaultLimits(nil))
		wantCheck(t, vs, "partitioner-compat")
	})

	t.Run("mixed-key-types", func(t *testing.T) {
		p := rdd.NewRangePartitionerWithBounds(3, []any{1.0, "x"})
		vs := verify.Plan(build(p), nil, verify.DefaultLimits(nil))
		wantCheck(t, vs, "partitioner-compat")
	})

	t.Run("sorted-is-clean", func(t *testing.T) {
		p := rdd.NewRangePartitionerWithBounds(4, []any{1.0, 2.0, 3.0})
		if vs := verify.Plan(build(p), nil, verify.DefaultLimits(nil)); len(vs) > 0 {
			t.Fatalf("sorted bounds rejected: %v", vs)
		}
	})
}

// TestRejectsPartitionCountMismatch desynchronizes an RDD from its shuffle
// partitioner — the invariant the scheduler maintains when retuning.
func TestRejectsPartitionCountMismatch(t *testing.T) {
	ctx := rdd.NewContext(4)
	red := pairSource(ctx, "a", 4, 1e9).ReduceByKey(add, 8)
	red.NumParts = 5 // scheduler would have kept this equal to Part's count

	wantCheck(t, verify.Plan(red, nil, verify.DefaultLimits(nil)), "partitioner-compat")
}

// TestErrorAndHooks covers the reporting surface: Error formatting, the
// strict hook aborting, and the observing hook collecting without aborting.
func TestErrorAndHooks(t *testing.T) {
	if err := verify.Error(nil); err != nil {
		t.Fatalf("Error(nil) = %v", err)
	}
	vs := []verify.Violation{{Check: "acyclic", Stage: "map:x sig=ab", Msg: "boom"}}
	err := verify.Error(vs)
	if err == nil || !strings.Contains(err.Error(), "acyclic") {
		t.Fatalf("Error(vs) = %v", err)
	}

	ctx := rdd.NewContext(4)
	bad := pairSource(ctx, "a", 4, 1e9).ReduceByKey(add, 8)
	bad.NumParts = 5
	result, topo := dag.BuildPlan(bad, nil)
	lim := verify.DefaultLimits(nil)

	if err := verify.Hook(lim)(result, topo); err == nil {
		t.Fatal("strict hook accepted a bad plan")
	}
	var seen []verify.Violation
	if err := verify.ObservingHook(lim, func(vs []verify.Violation) { seen = vs })(result, topo); err != nil {
		t.Fatalf("observing hook aborted: %v", err)
	}
	if len(seen) == 0 {
		t.Fatal("observing hook reported nothing")
	}

	good := pairSource(ctx, "b", 4, 1e9).ReduceByKey(add, 8)
	result, topo = dag.BuildPlan(good, nil)
	if err := verify.Hook(lim)(result, topo); err != nil {
		t.Fatalf("strict hook rejected a clean plan: %v", err)
	}
}

// TestDefaultLimits pins the derivation from the topology (paper Section
// III: partitions must fit the storage pool of one executor).
func TestDefaultLimits(t *testing.T) {
	lim := verify.DefaultLimits(nil)
	if lim.MaxPartitions != 2000 {
		t.Errorf("nil topo MaxPartitions = %d, want 2000", lim.MaxPartitions)
	}
	topo := cluster.PaperCluster()
	lim = verify.DefaultLimits(topo)
	if lim.MaxPartitionBytes <= 0 {
		t.Errorf("MaxPartitionBytes = %d, want > 0", lim.MaxPartitionBytes)
	}
	if min := int64(1e9); lim.MaxPartitionBytes < min {
		t.Errorf("MaxPartitionBytes = %d, implausibly small", lim.MaxPartitionBytes)
	}
}
