package exec_test

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"chopper/internal/cluster"
	"chopper/internal/dag"
	"chopper/internal/exec"
	"chopper/internal/metrics"
	"chopper/internal/rdd"
	"chopper/internal/storage"
)

// harness bundles a full engine + scheduler over the paper cluster.
type harness struct {
	ctx *rdd.Context
	eng *exec.Engine
	col *metrics.Collector
	sch *dag.Scheduler
}

func newHarness(coPart bool, cfg dag.StageConfigurator) *harness {
	ctx := rdd.NewContext(6)
	ctx.LogicalScale = 1000
	col := metrics.NewCollector("test", "test")
	eng := exec.New(cluster.PaperCluster(), cluster.DefaultCostParams(), ctx, col, coPart)
	sch := dag.NewScheduler(ctx, eng)
	sch.Configurator = cfg
	return &harness{ctx: ctx, eng: eng, col: col, sch: sch}
}

// pairSource builds a deterministic re-splittable pair source.
func pairSource(ctx *rdd.Context, rows int, keys int) *rdd.RDD {
	return ctx.Generate("pairs", 0, int64(rows)*24, func(split, total int) []rdd.Row {
		var out []rdd.Row
		for i := 0; i < rows; i++ {
			if int(rdd.KeyHash(i)%uint64(total)) == split {
				out = append(out, rdd.Pair{K: i % keys, V: 1.0})
			}
		}
		return out
	})
}

type staticCfg map[string]dag.SchemeSpec

func (c staticCfg) Scheme(sig string) (dag.SchemeSpec, bool) {
	s, ok := c[sig]
	return s, ok
}
func (c staticCfg) Refresh() {}

func sumByKey(t *testing.T, r *rdd.RDD) map[any]any {
	t.Helper()
	m, err := r.CollectPairsMap()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEngineMatchesLocalOracle(t *testing.T) {
	build := func(ctx *rdd.Context) *rdd.RDD {
		return pairSource(ctx, 500, 7).
			ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 0)
	}
	h := newHarness(false, nil)
	got := sumByKey(t, build(h.ctx))

	lctx := rdd.NewContext(6)
	lctx.SetRunner(rdd.NewLocalRunner())
	want := sumByKey(t, build(lctx))

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine result diverges from oracle:\n got %v\nwant %v", got, want)
	}
}

func TestEngineJoinMatchesOracle(t *testing.T) {
	build := func(ctx *rdd.Context) *rdd.RDD {
		left := pairSource(ctx, 200, 11)
		right := pairSource(ctx, 100, 11).MapValues(func(v any) any { return v.(float64) * 10 })
		return left.Join(right, nil)
	}
	h := newHarness(true, nil)
	got, err := build(h.ctx).Count()
	if err != nil {
		t.Fatal(err)
	}
	lctx := rdd.NewContext(6)
	lctx.SetRunner(rdd.NewLocalRunner())
	want, err := build(lctx).Count()
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got == 0 {
		t.Fatalf("join count %d, oracle %d", got, want)
	}
}

func TestSimulatedTimeAdvancesAndStagesRecorded(t *testing.T) {
	h := newHarness(false, nil)
	r := pairSource(h.ctx, 300, 5).ReduceByKey(func(a, b any) any { return a }, 4)
	if _, err := r.Count(); err != nil {
		t.Fatal(err)
	}
	if h.eng.Now() <= 0 {
		t.Fatalf("simulated time did not advance")
	}
	stages := h.col.Stages()
	if len(stages) != 2 {
		t.Fatalf("expected 2 recorded stages, got %d", len(stages))
	}
	mapStage, redStage := stages[0], stages[1]
	if mapStage.NumTasks != 6 { // default parallelism source
		t.Fatalf("map tasks = %d", mapStage.NumTasks)
	}
	if redStage.NumTasks != 4 {
		t.Fatalf("reduce tasks = %d", redStage.NumTasks)
	}
	if mapStage.ShuffleWrite == 0 || redStage.ShuffleRead == 0 {
		t.Fatalf("shuffle accounting missing: w=%d r=%d", mapStage.ShuffleWrite, redStage.ShuffleRead)
	}
	if redStage.Start < mapStage.End-1e-9 {
		t.Fatalf("barrier violated: reduce started %.2f before map end %.2f", redStage.Start, mapStage.End)
	}
	if len(mapStage.Tasks) != 6 {
		t.Fatalf("task metrics missing")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (float64, map[any]any) {
		h := newHarness(true, nil)
		left := pairSource(h.ctx, 400, 13).ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 0)
		right := pairSource(h.ctx, 150, 13)
		j := left.Join(right, nil)
		m := sumByKey(t, j)
		return h.eng.Now(), m
	}
	t1, m1 := run()
	t2, m2 := run()
	if math.Abs(t1-t2) > 1e-9 {
		t.Fatalf("simulated time not deterministic: %v vs %v", t1, t2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("results not deterministic")
	}
}

func TestCachingAvoidsSourceReads(t *testing.T) {
	h := newHarness(false, nil)
	// Large logical source so the cold scan dominates fixed task costs.
	src := h.ctx.Generate("bigsrc", 0, 5e9, func(split, total int) []rdd.Row {
		var out []rdd.Row
		for i := split; i < 400; i += total {
			out = append(out, rdd.Pair{K: i % 5, V: 1.0})
		}
		return out
	})
	cached := src.
		MapValues(func(v any) any { return v }).Cache()
	if _, err := cached.Count(); err != nil {
		t.Fatal(err)
	}
	s1 := h.col.Stages()
	firstInput := s1[len(s1)-1].InputBytes
	if _, err := cached.Count(); err != nil {
		t.Fatal(err)
	}
	s2 := h.col.Stages()
	second := s2[len(s2)-1]
	if second.InputBytes == 0 {
		t.Fatalf("cached read should still report input bytes")
	}
	// Second job's stage must be faster than the first (no source scan cost).
	first := s1[len(s1)-1]
	if second.Duration() >= first.Duration() {
		t.Fatalf("cached stage (%.3fs) should beat cold stage (%.3fs)", second.Duration(), first.Duration())
	}
	_ = firstInput
}

// TestReleaseRecomputesAndBalancesMemory releases an engine between two
// jobs over one cached reduce: the second job recomputes both stages from
// lineage to the same answer, and the collector's cached level (read as the
// memory series' mean over a bucket a million times the run) ends at what
// the store holds, not at the released copy plus the recomputed one.
func TestReleaseRecomputesAndBalancesMemory(t *testing.T) {
	h := newHarness(false, nil)
	cached := pairSource(h.ctx, 400, 7).ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 4).Cache()
	cachedLevel := func() (series, store float64) {
		var total float64
		for _, w := range h.eng.Topo.Workers() {
			total += w.MemGB * 1e9
		}
		for split := 0; split < cached.NumParts; split++ {
			if e, ok := h.eng.Cache.Peek(storage.CacheKey{RDD: cached.ID, Split: split, Of: cached.NumParts}); ok {
				store += float64(e.Bytes)
			}
		}
		vals := h.col.MemSeries(h.eng.Topo, h.eng.Now()*1e6, 0).Values
		return vals[len(vals)-1], 100 * store / total
	}
	want := sumByKey(t, cached)
	if series, store := cachedLevel(); store == 0 || math.Abs(series-store) > 1e-3*store {
		t.Fatalf("before Release: cached level %v%%, store holds %v%%", series, store)
	}
	h.eng.Release()
	if h.eng.CachedComplete(cached) {
		t.Fatal("Release left the cached reduce resident")
	}
	before := len(h.col.Stages())
	if got := sumByKey(t, cached); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Release: %v, want %v", got, want)
	}
	if ran := len(h.col.Stages()) - before; ran != 2 {
		t.Fatalf("after Release the job ran %d stages, want the map and the reduce again", ran)
	}
	if series, store := cachedLevel(); math.Abs(series-store) > 1e-3*store {
		t.Fatalf("after Release and a recompute: cached level %v%%, store holds %v%%", series, store)
	}
}

func TestConfiguratorRetunesTunableStage(t *testing.T) {
	// First discover the reduce stage signature, then re-run with a config.
	h := newHarness(false, nil)
	var sigs []dag.StageInfo
	h.sch.OnJob = func(infos []dag.StageInfo) { sigs = infos }
	r := pairSource(h.ctx, 300, 9).ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 0)
	want := sumByKey(t, r)
	redSig := sigs[len(sigs)-1].Signature

	cfg := staticCfg{redSig: {Scheme: rdd.SchemeHash, NumPartitions: 5}}
	h2 := newHarness(false, cfg)
	r2 := pairSource(h2.ctx, 300, 9).ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 0)
	got := sumByKey(t, r2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("retuned results differ")
	}
	stages := h2.col.Stages()
	red := stages[len(stages)-1]
	if red.NumTasks != 5 {
		t.Fatalf("configurator did not retune partitions: %d tasks", red.NumTasks)
	}
}

func TestConfiguratorRangeScheme(t *testing.T) {
	h := newHarness(false, nil)
	var sigs []dag.StageInfo
	h.sch.OnJob = func(infos []dag.StageInfo) { sigs = infos }
	r := pairSource(h.ctx, 300, 50).ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 0)
	want := sumByKey(t, r)
	redSig := sigs[len(sigs)-1].Signature

	cfg := staticCfg{redSig: {Scheme: rdd.SchemeRange, NumPartitions: 6}}
	h2 := newHarness(false, cfg)
	r2 := pairSource(h2.ctx, 300, 50).ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 0)
	got := sumByKey(t, r2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("range-partitioned results differ")
	}
	stages := h2.col.Stages()
	red := stages[len(stages)-1]
	if red.Partitioner != "range" {
		t.Fatalf("stage partitioner = %q, want range", red.Partitioner)
	}
	if red.NumTasks != 6 {
		t.Fatalf("range retune tasks = %d", red.NumTasks)
	}
}

func TestConfiguratorRespectsFixedStages(t *testing.T) {
	cfgAll := func(n int) staticCfg {
		// Apply the same spec to every stage by wildcarding: build config
		// after discovering signatures.
		return nil
	}
	_ = cfgAll
	h := newHarness(false, nil)
	var sigs []dag.StageInfo
	h.sch.OnJob = func(infos []dag.StageInfo) { sigs = infos }
	r := pairSource(h.ctx, 200, 9).ReduceByKey(func(a, b any) any { return a }, 7) // user-fixed 7
	if _, err := r.Count(); err != nil {
		t.Fatal(err)
	}
	redSig := sigs[len(sigs)-1].Signature

	cfg := staticCfg{redSig: {Scheme: rdd.SchemeHash, NumPartitions: 3}} // no InsertRepartition
	h2 := newHarness(false, cfg)
	r2 := pairSource(h2.ctx, 200, 9).ReduceByKey(func(a, b any) any { return a }, 7)
	if _, err := r2.Count(); err != nil {
		t.Fatal(err)
	}
	stages := h2.col.Stages()
	red := stages[len(stages)-1]
	if red.NumTasks != 7 {
		t.Fatalf("fixed stage was retuned to %d tasks", red.NumTasks)
	}
}

func TestConfiguratorInsertsRepartition(t *testing.T) {
	h := newHarness(false, nil)
	var sigs []dag.StageInfo
	h.sch.OnJob = func(infos []dag.StageInfo) { sigs = infos }
	build := func(ctx *rdd.Context) *rdd.RDD {
		return pairSource(ctx, 200, 9).
			ReduceByKeyPart(func(a, b any) any { return a.(float64) + b.(float64) }, rdd.NewHashPartitioner(7)).
			MapValues(func(v any) any { return v })
	}
	want := sumByKey(t, build(h.ctx))
	baseStages := len(h.col.Stages())
	redSig := sigs[len(sigs)-1].Signature

	cfg := staticCfg{redSig: {Scheme: rdd.SchemeHash, NumPartitions: 3, InsertRepartition: true}}
	h2 := newHarness(false, cfg)
	got := sumByKey(t, build(h2.ctx))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("repartition insertion changed results")
	}
	stages := h2.col.Stages()
	if len(stages) != baseStages+1 {
		t.Fatalf("expected an inserted repartition stage: %d vs %d", len(stages), baseStages)
	}
	last := stages[len(stages)-1]
	if last.NumTasks != 3 {
		t.Fatalf("final stage should run at the inserted partitioning, got %d tasks", last.NumTasks)
	}
}

func TestCoPartitionAwarePlacementImprovesLocality(t *testing.T) {
	localFrac := func(coPart bool) float64 {
		h := newHarness(coPart, nil)
		// Skewed map-side volume: split 0 produces the vast majority of the
		// shuffle input, so one map node dominates each reduce partition.
		src := h.ctx.Generate("skewsrc", 5, 5*24*400*1000, func(split, total int) []rdd.Row {
			n := 40
			if split == 0 {
				n = 2000
			}
			out := make([]rdd.Row, n)
			for i := range out {
				out[i] = rdd.Pair{K: i, V: 1.0}
			}
			return out
		})
		r := src.GroupByKey(10)
		if _, err := r.Count(); err != nil {
			t.Fatal(err)
		}
		stages := h.col.Stages()
		red := stages[len(stages)-1]
		var local, total int64
		for _, tm := range red.Tasks {
			local += tm.ShuffleReadLocal
			total += tm.ShuffleReadLocal + tm.ShuffleReadRemote
		}
		if total == 0 {
			t.Fatalf("no shuffle read observed")
		}
		return float64(local) / float64(total)
	}
	vanilla := localFrac(false)
	chopper := localFrac(true)
	if chopper <= vanilla {
		t.Fatalf("co-partition-aware placement should raise local fraction: %.3f vs %.3f", chopper, vanilla)
	}
}

func TestWaveOverlapShortensIndependentStages(t *testing.T) {
	run := func(coPart bool) float64 {
		h := newHarness(coPart, nil)
		left := pairSource(h.ctx, 800, 20).ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 0)
		right := pairSource(h.ctx, 800, 20).ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 0)
		j := left.Join(right, nil)
		if _, err := j.Count(); err != nil {
			t.Fatal(err)
		}
		return h.eng.Now()
	}
	serial := run(false)
	overlapped := run(true)
	if overlapped >= serial {
		t.Fatalf("overlapping independent stages should be faster: %.2f vs %.2f", overlapped, serial)
	}
}

func TestSkewedKeysCreateStragglers(t *testing.T) {
	// All rows share one key: with a hash partitioner one reduce task gets
	// everything, so max task time should dwarf the median.
	h := newHarness(false, nil)
	// 5 GB logical on one key: the hot reduce task must fetch everything.
	src := h.ctx.Generate("skew", 0, 5e9, func(split, total int) []rdd.Row {
		var out []rdd.Row
		for i := 0; i < 2000; i++ {
			if int(rdd.KeyHash(i)%uint64(total)) == split {
				out = append(out, rdd.Pair{K: 1, V: 1.0})
			}
		}
		return out
	})
	// groupByKey has no map-side combine, so the hot key's full volume
	// lands on a single reduce task.
	r := src.GroupByKey(8)
	if _, err := r.Count(); err != nil {
		t.Fatal(err)
	}
	stages := h.col.Stages()
	red := stages[len(stages)-1]
	var durs []float64
	for _, tm := range red.Tasks {
		durs = append(durs, tm.End-tm.Start)
	}
	sort.Float64s(durs)
	if durs[len(durs)-1] <= durs[len(durs)/2]*1.2 {
		t.Fatalf("expected a straggler: max %.3f median %.3f", durs[len(durs)-1], durs[len(durs)/2])
	}
}

func TestSpeculationRescuesSlowNodeStragglers(t *testing.T) {
	// A cluster with one pathologically slow worker: tasks landing there run
	// ~6x longer. Speculation must launch backups and shorten the stage.
	topo := &cluster.Topology{Nodes: []*cluster.Node{
		{Name: "fast1", Cores: 8, SpeedGHz: 2.0, MemGB: 64, LinkGbps: 10},
		{Name: "fast2", Cores: 8, SpeedGHz: 2.0, MemGB: 64, LinkGbps: 10},
		{Name: "slow", Cores: 2, SpeedGHz: 0.3, MemGB: 64, LinkGbps: 10},
	}}
	run := func(speculate bool) float64 {
		ctx := rdd.NewContext(24)
		ctx.LogicalScale = 1e5
		col := metrics.NewCollector("spec", "t")
		eng := exec.New(topo, cluster.DefaultCostParams(), ctx, col, false)
		eng.Speculate = speculate
		dag.NewScheduler(ctx, eng)
		src := ctx.Generate("s", 0, 2e9, func(split, total int) []rdd.Row {
			var out []rdd.Row
			for i := split; i < 2400; i += total {
				out = append(out, rdd.Pair{K: i, V: 1.0})
			}
			return out
		})
		heavy := src.MapCost("burn", 4.0, func(r rdd.Row) rdd.Row { return r })
		if _, err := heavy.Count(); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	off := run(false)
	on := run(true)
	if on >= off {
		t.Fatalf("speculation should shorten the slow-node stage: %.2f vs %.2f", on, off)
	}
}

func TestSpeculationCannotFixDataSkew(t *testing.T) {
	// The hot partition is equally large on any node: a backup attempt does
	// not help, so speculation must not change the stage time materially.
	run := func(speculate bool) float64 {
		h := newHarness(false, nil)
		h.eng.Speculate = speculate
		src := h.ctx.Generate("skew2", 0, 3e9, func(split, total int) []rdd.Row {
			var out []rdd.Row
			for i := split; i < 3000; i += total {
				out = append(out, rdd.Pair{K: 1, V: 1.0})
			}
			return out
		})
		if _, err := src.GroupByKey(12).Count(); err != nil {
			t.Fatal(err)
		}
		return h.eng.Now()
	}
	off := run(false)
	on := run(true)
	if on < off*0.95 {
		t.Fatalf("speculation should not fix data skew: %.2f vs %.2f", on, off)
	}
}
