package dag

import (
	"errors"
	"testing"

	"chopper/internal/rdd"
)

// fakeRunner implements StageRunner over the local reference evaluator: map
// stages are recorded (their shuffles are computed lazily by the local
// runner at result time), so tests can assert the scheduler's planning
// behavior without the cluster engine.
type fakeRunner struct {
	local     *rdd.LocalRunner
	waves     [][]*Stage
	cachedOK  map[int]bool // rdd id -> CachedComplete answer
	waveErr   error
	resultErr error
}

func newFakeRunner() *fakeRunner {
	return &fakeRunner{local: rdd.NewLocalRunner(), cachedOK: map[int]bool{}}
}

func (f *fakeRunner) RunWave(stages []*Stage) error {
	f.waves = append(f.waves, stages)
	return f.waveErr
}

func (f *fakeRunner) RunResult(st *Stage, fn func(split int, rows []rdd.Row) (any, error)) ([]any, error) {
	if f.resultErr != nil {
		return nil, f.resultErr
	}
	return f.local.RunJob(st.Final, fn)
}

func (f *fakeRunner) Materialize(r *rdd.RDD, split int) ([]rdd.Row, error) {
	return f.local.Materialize(r, split)
}

func (f *fakeRunner) CachedComplete(r *rdd.RDD) bool { return f.cachedOK[r.ID] }

func pairGen(ctx *rdd.Context, rows, keys int) *rdd.RDD {
	return ctx.Generate("pg", 0, int64(rows)*24, func(split, total int) []rdd.Row {
		var out []rdd.Row
		for i := split; i < rows; i += total {
			out = append(out, rdd.Pair{K: i % keys, V: 1.0})
		}
		return out
	})
}

func TestSchedulerRunsJobAndAssignsIDs(t *testing.T) {
	ctx := rdd.NewContext(4)
	fr := newFakeRunner()
	s := NewScheduler(ctx, fr)

	var infos []StageInfo
	s.OnJob = func(in []StageInfo) { infos = in }

	red := pairGen(ctx, 40, 5).ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 3)
	n, err := red.Count()
	if err != nil || n != 5 {
		t.Fatalf("count = %d err=%v", n, err)
	}
	if len(fr.waves) != 1 || len(fr.waves[0]) != 1 {
		t.Fatalf("expected one map wave: %v", fr.waves)
	}
	mapStage := fr.waves[0][0]
	if mapStage.OutDep == nil || mapStage.OutDep.ShuffleID == 0 {
		t.Fatalf("shuffle id not assigned")
	}
	if len(infos) != 2 || infos[0].ID != 0 || infos[1].ID != 1 {
		t.Fatalf("stage ids wrong: %+v", infos)
	}
	if s.nextStageID != 2 {
		t.Fatalf("stages built = %d", s.nextStageID)
	}

	// A second job continues the global stage counter.
	if _, err := red.Count(); err != nil {
		t.Fatal(err)
	}
	if s.nextStageID != 4 {
		t.Fatalf("global counter should continue: %d", s.nextStageID)
	}
}

func TestSchedulerWaveOrdering(t *testing.T) {
	ctx := rdd.NewContext(4)
	fr := newFakeRunner()
	s := NewScheduler(ctx, fr)
	_ = s

	left := pairGen(ctx, 30, 4).ReduceByKey(func(a, b any) any { return a }, 2)
	right := pairGen(ctx, 30, 4).ReduceByKey(func(a, b any) any { return a }, 2)
	j := left.Join(right, nil)
	if _, err := j.Count(); err != nil {
		t.Fatal(err)
	}
	if len(fr.waves) != 2 {
		t.Fatalf("join should need two waves, got %d", len(fr.waves))
	}
	if len(fr.waves[0]) != 2 || len(fr.waves[1]) != 2 {
		t.Fatalf("wave shapes wrong: %d, %d", len(fr.waves[0]), len(fr.waves[1]))
	}
	// Parents must be scheduled before children.
	for _, early := range fr.waves[0] {
		for _, late := range fr.waves[1] {
			for _, p := range late.Parents {
				if p == early {
					goto ok
				}
			}
		}
	}
	t.Fatalf("second wave should depend on the first")
ok:
}

func TestSchedulerPropagatesWaveError(t *testing.T) {
	ctx := rdd.NewContext(2)
	fr := newFakeRunner()
	fr.waveErr = errors.New("wave boom")
	NewScheduler(ctx, fr)
	red := pairGen(ctx, 10, 2).ReduceByKey(func(a, b any) any { return a }, 2)
	if _, err := red.Count(); err == nil {
		t.Fatalf("wave error should propagate")
	}
	fr2 := newFakeRunner()
	fr2.resultErr = errors.New("result boom")
	ctx2 := rdd.NewContext(2)
	NewScheduler(ctx2, fr2)
	if _, err := pairGen(ctx2, 10, 2).Count(); err == nil {
		t.Fatalf("result error should propagate")
	}
}

type mapCfg map[string]SchemeSpec

func (m mapCfg) Scheme(sig string) (SchemeSpec, bool) { s, ok := m[sig]; return s, ok }
func (m mapCfg) Refresh()                             {}

func TestSchedulerAppliesConfig(t *testing.T) {
	// Discover the reduce signature with a first run.
	ctx := rdd.NewContext(4)
	fr := newFakeRunner()
	s := NewScheduler(ctx, fr)
	var sig string
	s.OnJob = func(infos []StageInfo) { sig = infos[len(infos)-1].Signature }
	build := func(c *rdd.Context) *rdd.RDD {
		return pairGen(c, 40, 7).ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 0)
	}
	if _, err := build(ctx).Count(); err != nil {
		t.Fatal(err)
	}

	ctx2 := rdd.NewContext(4)
	fr2 := newFakeRunner()
	s2 := NewScheduler(ctx2, fr2)
	s2.Configurator = mapCfg{sig: {Scheme: rdd.SchemeHash, NumPartitions: 9}}
	red := build(ctx2)
	if _, err := red.Count(); err != nil {
		t.Fatal(err)
	}
	if red.NumParts != 9 {
		t.Fatalf("config should retune the reduce stage: %d", red.NumParts)
	}
}

func TestSchedulerRejectsInvalidConfig(t *testing.T) {
	ctx := rdd.NewContext(4)
	fr := newFakeRunner()
	s := NewScheduler(ctx, fr)
	var sig string
	s.OnJob = func(infos []StageInfo) { sig = infos[0].Signature }
	src := pairGen(ctx, 10, 2)
	if _, err := src.Count(); err != nil {
		t.Fatal(err)
	}
	s.Configurator = mapCfg{sig: {Scheme: "bogus", NumPartitions: 5}}
	if _, err := src.Count(); err == nil {
		t.Fatalf("invalid scheme should fail the job")
	}
}

func TestSchedulerSkipsMaterializedCacheRetune(t *testing.T) {
	ctx := rdd.NewContext(4)
	fr := newFakeRunner()
	s := NewScheduler(ctx, fr)
	src := pairGen(ctx, 40, 5)
	cached := src.Map(func(r rdd.Row) rdd.Row { return r }).Cache()
	var sig string
	s.OnJob = func(infos []StageInfo) { sig = infos[0].Signature }
	if _, err := cached.Count(); err != nil {
		t.Fatal(err)
	}
	before := src.NumParts

	// Pretend the cache is resident; the configurator must not resplit.
	fr.cachedOK[cached.ID] = true
	s.Configurator = mapCfg{sig: {Scheme: rdd.SchemeHash, NumPartitions: before + 7}}
	if _, err := cached.Count(); err != nil {
		t.Fatal(err)
	}
	if src.NumParts != before {
		t.Fatalf("materialized cache should pin the source: %d -> %d", before, src.NumParts)
	}

	// Without residency the same config resplits.
	fr.cachedOK[cached.ID] = false
	if _, err := cached.Count(); err != nil {
		t.Fatal(err)
	}
	if src.NumParts != before+7 {
		t.Fatalf("tunable source should be resplit: %d", src.NumParts)
	}
}

func TestSchedulerPrunesCachedParentStages(t *testing.T) {
	ctx := rdd.NewContext(4)
	fr := newFakeRunner()
	NewScheduler(ctx, fr)
	agg := pairGen(ctx, 40, 5).
		ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 3).Cache()
	if _, err := agg.Count(); err != nil {
		t.Fatal(err)
	}
	wavesBefore := len(fr.waves)

	// Residency declared: the next job over agg must skip its map stage.
	fr.cachedOK[agg.ID] = true
	if _, err := agg.MapValues(func(v any) any { return v }).Count(); err != nil {
		t.Fatal(err)
	}
	if len(fr.waves) != wavesBefore {
		t.Fatalf("cached parent stage should be pruned; extra waves ran: %d -> %d", wavesBefore, len(fr.waves))
	}
}

// TestSchedulerSamplesRangeBounds requests range partitioning the way a
// tuned run does, through a configuration entry for the reduce stage: the
// scheduler must sample bounds before the map stage runs, clear WantRange,
// and every reduce partition must hold exactly the keys its bound range
// names.
func TestSchedulerSamplesRangeBounds(t *testing.T) {
	// Each output row is the reduced key, tagged with the split holding it.
	build := func(c *rdd.Context) (*rdd.RDD, *rdd.RDD) {
		red := pairGen(c, 60, 60).ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 0)
		return red, red.MapPartitions("tag", 1, func(split int, rows []rdd.Row) []rdd.Row {
			out := make([]rdd.Row, len(rows))
			for i, row := range rows {
				out[i] = rdd.Pair{K: split, V: row.(rdd.Pair).K}
			}
			return out
		})
	}
	ctx := rdd.NewContext(4)
	s := NewScheduler(ctx, newFakeRunner())
	var sig string
	s.OnJob = func(infos []StageInfo) { sig = infos[len(infos)-1].Signature }
	_, tagged := build(ctx)
	if _, err := tagged.Count(); err != nil {
		t.Fatal(err)
	}

	ctx2 := rdd.NewContext(4)
	fr := newFakeRunner()
	s2 := NewScheduler(ctx2, fr)
	s2.Configurator = mapCfg{sig: {Scheme: rdd.SchemeRange, NumPartitions: 4}}
	red, tagged := build(ctx2)
	rows, err := tagged.Collect()
	if err != nil {
		t.Fatal(err)
	}
	// The scheduler must have replaced the pending range partitioner.
	mapStage := fr.waves[0][0]
	rp, ok := mapStage.OutDep.Part.(*rdd.RangePartitioner)
	if !ok || len(rp.Bounds()) == 0 {
		t.Fatalf("range bounds not materialized: %T", mapStage.OutDep.Part)
	}
	if mapStage.OutDep.WantRange {
		t.Fatalf("WantRange should be cleared after sampling")
	}
	if len(rows) != 60 || red.NumParts != 4 {
		t.Fatalf("got %d rows over %d partitions, want 60 over 4", len(rows), red.NumParts)
	}
	for _, row := range rows {
		p := row.(rdd.Pair)
		if want := rp.PartitionFor(p.V); p.K.(int) != want {
			t.Fatalf("key %v landed in partition %d, its bound range names %d", p.V, p.K, want)
		}
	}
}

func TestSchedulerInsertRepartitionViaConfig(t *testing.T) {
	ctx := rdd.NewContext(4)
	fr := newFakeRunner()
	s := NewScheduler(ctx, fr)
	var sigs []StageInfo
	s.OnJob = func(infos []StageInfo) { sigs = infos }
	build := func(c *rdd.Context) *rdd.RDD {
		return pairGen(c, 40, 7).
			ReduceByKeyPart(func(a, b any) any { return a.(float64) + b.(float64) }, rdd.NewHashPartitioner(5)).
			MapValues(func(v any) any { return v })
	}
	want, err := build(ctx).CollectPairsMap()
	if err != nil {
		t.Fatal(err)
	}
	fixedSig := sigs[len(sigs)-1].Signature
	baseStages := len(sigs)

	ctx2 := rdd.NewContext(4)
	fr2 := newFakeRunner()
	s2 := NewScheduler(ctx2, fr2)
	s2.OnJob = func(infos []StageInfo) { sigs = infos }
	s2.Configurator = mapCfg{fixedSig: {Scheme: rdd.SchemeHash, NumPartitions: 2, InsertRepartition: true}}
	red := build(ctx2)
	got, err := red.CollectPairsMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != baseStages+1 {
		t.Fatalf("a repartition stage should be inserted: %d vs %d", len(sigs), baseStages)
	}
	if red.NumParts != 2 {
		t.Fatalf("downstream should run at the inserted partitioning: %d", red.NumParts)
	}
	if len(got) != len(want) {
		t.Fatalf("insertion changed results: %d vs %d keys", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %v: %v != %v", k, got[k], v)
		}
	}
}

func TestSchedulerOverrideRetunesFixed(t *testing.T) {
	ctx := rdd.NewContext(4)
	fr := newFakeRunner()
	s := NewScheduler(ctx, fr)
	var sig string
	s.OnJob = func(infos []StageInfo) { sig = infos[len(infos)-1].Signature }
	red := pairGen(ctx, 30, 6).ReduceByKey(func(a, b any) any { return a }, 7)
	if _, err := red.Count(); err != nil {
		t.Fatal(err)
	}

	ctx2 := rdd.NewContext(4)
	fr2 := newFakeRunner()
	s2 := NewScheduler(ctx2, fr2)
	s2.Configurator = mapCfg{sig: {Scheme: rdd.SchemeHash, NumPartitions: 3, Override: true}}
	red2 := pairGen(ctx2, 30, 6).ReduceByKey(func(a, b any) any { return a }, 7)
	if _, err := red2.Count(); err != nil {
		t.Fatal(err)
	}
	if red2.NumParts != 3 {
		t.Fatalf("Override should retune even fixed stages: %d", red2.NumParts)
	}
}

func TestSchedulerInsertRepartitionAfterFixedSource(t *testing.T) {
	build := func(ctx *rdd.Context) *rdd.RDD {
		// Explicit split count pins the source (user-fixed).
		src := ctx.Generate("pinnedSrc", 4, 1000, func(split, total int) []rdd.Row {
			var out []rdd.Row
			for i := split; i < 40; i += total {
				out = append(out, rdd.Pair{K: i % 5, V: 1.0})
			}
			return out
		})
		return src.MapValues(func(v any) any { return v })
	}
	ctx := rdd.NewContext(4)
	fr := newFakeRunner()
	s := NewScheduler(ctx, fr)
	var sigs []StageInfo
	s.OnJob = func(infos []StageInfo) { sigs = infos }
	want, err := build(ctx).CollectPairsMap()
	if err != nil {
		t.Fatal(err)
	}
	if !sigs[0].Fixed {
		t.Fatalf("explicit-count source stage should be fixed")
	}
	srcSig := sigs[0].Signature
	baseStages := len(sigs)

	ctx2 := rdd.NewContext(4)
	fr2 := newFakeRunner()
	s2 := NewScheduler(ctx2, fr2)
	s2.OnJob = func(infos []StageInfo) { sigs = infos }
	s2.Configurator = mapCfg{srcSig: {Scheme: rdd.SchemeHash, NumPartitions: 9, InsertRepartition: true}}
	red := build(ctx2)
	got, err := red.CollectPairsMap()
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != baseStages+1 {
		t.Fatalf("a repartition stage should be inserted after the fixed source: %d vs %d", len(sigs), baseStages)
	}
	if red.NumParts != 9 {
		t.Fatalf("downstream should follow the inserted partitioning: %d", red.NumParts)
	}
	if len(got) != len(want) {
		t.Fatalf("insertion changed results: %d vs %d keys", len(got), len(want))
	}
}

// retiringRunner records every live-shuffle set the scheduler hands to
// RetireShufflesExcept, so tests can pin the retirement contract.
type retiringRunner struct {
	*fakeRunner
	liveSets [][]int
}

func (r *retiringRunner) RetireShufflesExcept(live []int) {
	r.liveSets = append(r.liveSets, append([]int(nil), live...))
}

func TestSchedulerRetiresStaleShuffles(t *testing.T) {
	ctx := rdd.NewContext(4)
	rr := &retiringRunner{fakeRunner: newFakeRunner()}
	_ = NewScheduler(ctx, rr)

	sum := func(a, b any) any { return a.(float64) + b.(float64) }
	redA := pairGen(ctx, 40, 5).ReduceByKey(sum, 3)
	if _, err := redA.Count(); err != nil {
		t.Fatal(err)
	}
	if len(rr.liveSets) != 1 || len(rr.liveSets[0]) != 1 {
		t.Fatalf("job 1 live set = %v, want one assigned shuffle id", rr.liveSets)
	}
	idA := rr.liveSets[0][0]
	if idA <= 0 {
		t.Fatalf("live set must carry assigned ids, got %d", idA)
	}

	// A job over an unrelated lineage must not keep redA's shuffle live.
	redB := pairGen(ctx, 40, 7).ReduceByKey(sum, 3)
	if _, err := redB.Count(); err != nil {
		t.Fatal(err)
	}
	live2 := rr.liveSets[1]
	if len(live2) != 1 || live2[0] == idA {
		t.Fatalf("job 2 live set = %v, must hold only the new lineage's shuffle", live2)
	}
}

// TestSchedulerKeepsCachedFrontierShufflesLive pins the lineage-safety
// half of the retirement contract: when a producer stage is pruned for
// cache residency, its shuffle keeps the id of the job that ran it — and
// that id must stay in the live set, because a mid-job cache eviction
// recomputes straight through it.
func TestSchedulerKeepsCachedFrontierShufflesLive(t *testing.T) {
	ctx := rdd.NewContext(4)
	rr := &retiringRunner{fakeRunner: newFakeRunner()}
	NewScheduler(ctx, rr)

	agg := pairGen(ctx, 40, 5).
		ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 3).Cache()
	if _, err := agg.Count(); err != nil {
		t.Fatal(err)
	}
	idAgg := rr.liveSets[0][0]

	// Residency declared: the producer stage is pruned, yet its shuffle id
	// must survive in the next job's live set.
	rr.cachedOK[agg.ID] = true
	if _, err := agg.MapValues(func(v any) any { return v }).Count(); err != nil {
		t.Fatal(err)
	}
	live2 := rr.liveSets[1]
	found := false
	for _, id := range live2 {
		if id == idAgg {
			found = true
		}
	}
	if !found {
		t.Fatalf("job 2 live set = %v, must keep pruned producer's shuffle %d for cache-loss recompute", live2, idAgg)
	}
}
