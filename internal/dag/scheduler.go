package dag

import (
	"fmt"
	"sync"

	"chopper/internal/rdd"
)

// SchemeSpec is the per-stage partitioning decision from a configuration.
type SchemeSpec struct {
	Scheme        rdd.SchemeName
	NumPartitions int
	// InsertRepartition permits adding an extra repartition phase when the
	// stage's own partitioning is user-fixed (paper Algorithm 3).
	InsertRepartition bool
	// Override retunes even user-fixed stages. CHOPPER's production
	// configurations never set it; the profiler's test runs do, since the
	// models need observations across partition counts for every stage.
	Override bool
}

// StageConfigurator supplies CHOPPER's dynamic per-stage configuration to
// the scheduler. A nil configurator reproduces vanilla Spark.
type StageConfigurator interface {
	// Scheme returns the desired partitioning for the stage with the given
	// signature. ok=false leaves the application's defaults untouched.
	Scheme(signature string) (SchemeSpec, bool)
	// Refresh is called before each job so dynamically updated
	// configuration files can be re-read (paper Section III-A).
	Refresh()
}

// StageRunner executes stages on the simulated cluster. Implemented by
// internal/exec; declared here to keep the scheduler engine-agnostic.
type StageRunner interface {
	// RunWave executes the map stages of one dependency wave. Runners may
	// overlap stages of a wave in simulated time (CHOPPER's combined
	// shuffle-write scheduling) or serialize them (vanilla).
	RunWave(stages []*Stage) error
	// RunResult executes the result stage, applying fn to each partition.
	RunResult(st *Stage, fn func(split int, rows []rdd.Row) (any, error)) ([]any, error)
	// Materialize computes one partition driver-side (no simulated cost),
	// assuming all upstream shuffles are complete. Used for range bounds
	// sampling.
	Materialize(r *rdd.RDD, split int) ([]rdd.Row, error)
	// CachedComplete reports whether every partition of r is resident in the
	// cache, which lets the scheduler skip the stages feeding it (Spark's
	// "skipped stages").
	CachedComplete(r *rdd.RDD) bool
}

// ShuffleRetirer is optionally implemented by stage runners whose shuffle
// storage frees whole generations at once (the columnar arena layout).
// At each job submission the scheduler hands it every shuffle id still
// reachable from the job's lineage; the runner may release the rest.
// Lineage ids — not just the ids of stages that will run — are the safe
// set: a pruned producer stage keeps its old shuffle id on the dependency,
// and a mid-job cache loss recomputes through exactly those old shuffles.
type ShuffleRetirer interface {
	RetireShufflesExcept(live []int)
}

// StageInfo is the DAG metadata reported to observers (the statistics
// collector feeding CHOPPER's workload DB).
type StageInfo struct {
	ID         int
	Signature  string
	Name       string
	ParentSigs []string
	Fixed      bool
	IsJoinLike bool
	IsResult   bool
	NumTasks   int
	Partition  string // partitioner scheme name
	PinKey     string // partition-dependency group (cached-RDD signature)
}

// Scheduler is the job-level DAG scheduler (Spark's DAGScheduler analogue).
type Scheduler struct {
	mu sync.Mutex

	ctx    *rdd.Context
	runner StageRunner

	nextStageID   int
	nextShuffleID int

	// Configurator, when set, retunes stages from CHOPPER's configuration.
	Configurator StageConfigurator

	// OnJob observes the stage graph of every submitted job.
	OnJob func(stages []StageInfo)

	// OnPlan observes every job's raw stage plan at the same point Verify
	// sees it: configuration applied, cached stages not yet pruned, IDs not
	// yet assigned. That makes the observed structure directly comparable
	// to a cold dag.BuildPlan over the same lineage (only signatures differ
	// with cache warmth). cmd/chopperplan's drift gate hangs off this.
	OnPlan func(result *Stage, topo []*Stage)

	// Verify, when non-nil, inspects every job's stage graph right after it
	// is built (configuration already applied, cached stages not yet pruned,
	// IDs not yet assigned). Returning an error aborts the job before any
	// stage runs. internal/plan/verify provides the standard implementations:
	// a strict hook for tests and a logging hook for production sessions.
	Verify func(result *Stage, topo []*Stage) error
}

// NewScheduler creates a scheduler bound to a context and stage runner,
// and attaches itself as the context's JobRunner.
func NewScheduler(ctx *rdd.Context, runner StageRunner) *Scheduler {
	s := &Scheduler{ctx: ctx, runner: runner}
	ctx.SetRunner(s)
	return s
}

// RunJob implements rdd.JobRunner: it plans and executes the stages needed
// to evaluate fn over every partition of target.
func (s *Scheduler) RunJob(target *rdd.RDD, fn func(split int, rows []rdd.Row) (any, error)) ([]any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.Configurator != nil {
		s.Configurator.Refresh()
		if err := s.applyConfig(target); err != nil {
			return nil, err
		}
	}
	rdd.PropagateCounts(target)

	result, topo := buildStages(target, s.warmFn())
	if s.OnPlan != nil {
		s.OnPlan(result, topo)
	}
	if s.Verify != nil {
		if err := s.Verify(result, topo); err != nil {
			return nil, err
		}
	}
	topo = s.pruneCachedStages(result, topo)
	for _, st := range topo {
		st.ID = s.nextStageID
		s.nextStageID++
		if st.OutDep != nil {
			s.nextShuffleID++
			st.OutDep.ShuffleID = s.nextShuffleID
		}
	}
	if s.OnJob != nil {
		s.OnJob(stageInfos(topo))
	}
	if r, ok := s.runner.(ShuffleRetirer); ok {
		// Shuffles no earlier job left reachable from this job's lineage
		// can never be read again: their arenas retire as one generation.
		r.RetireShufflesExcept(liveShuffleIDs(target))
	}

	for _, wave := range Waves(topo) {
		for _, st := range wave {
			if err := s.prepareRangeBounds(target, st); err != nil {
				return nil, err
			}
		}
		if err := s.runner.RunWave(wave); err != nil {
			return nil, err
		}
	}
	return s.runner.RunResult(result, fn)
}

// liveShuffleIDs collects every assigned shuffle id on any shuffle
// dependency in target's lineage — the full reachable set, deliberately
// ignoring cache warmth: dependencies below the cache frontier keep their
// ids from the job that ran them, and a cache eviction mid-job (node
// loss) recomputes through them.
func liveShuffleIDs(target *rdd.RDD) []int {
	var live []int
	for _, r := range target.Lineage() {
		for _, d := range r.Deps {
			if sd, ok := d.(*rdd.ShuffleDep); ok && sd.ShuffleID > 0 {
				live = append(live, sd.ShuffleID)
			}
		}
	}
	return live
}

// warmFn adapts the runner's cache-residency check for signatures.
func (s *Scheduler) warmFn() func(*rdd.RDD) bool {
	return func(r *rdd.RDD) bool { return s.runner.CachedComplete(r) }
}

// pruneCachedStages drops stages that only exist to feed shuffle-input RDDs
// whose every partition is already cached (Spark's skipped stages), along
// with their no-longer-needed ancestors. The surviving stages keep
// parent-before-child order; parent links to pruned stages are removed.
func (s *Scheduler) pruneCachedStages(result *Stage, topo []*Stage) []*Stage {
	needed := map[*Stage]bool{}
	var visit func(st *Stage)
	visit = func(st *Stage) {
		if needed[st] {
			return
		}
		needed[st] = true
		live := s.liveInDeps(st)
		for i, dep := range st.InDeps {
			if !live[dep] {
				continue
			}
			visit(st.Parents[i])
		}
	}
	visit(result)
	kept := make([]*Stage, 0, len(topo))
	for _, st := range topo {
		if !needed[st] {
			continue
		}
		var parents []*Stage
		var deps []*rdd.ShuffleDep
		for i, p := range st.Parents {
			if needed[p] {
				parents = append(parents, p)
				deps = append(deps, st.InDeps[i])
			}
		}
		st.Parents = parents
		st.InDeps = deps
		kept = append(kept, st)
	}
	return kept
}

// liveInDeps walks the stage's narrow chain from its final RDD, stopping at
// cached-and-resident RDDs (materialization will read the cache and never
// descend further — Spark's uncached frontier), and reports which input
// shuffles are still reachable and therefore actually needed.
func (s *Scheduler) liveInDeps(st *Stage) map[*rdd.ShuffleDep]bool {
	live := map[*rdd.ShuffleDep]bool{}
	seen := map[int]bool{}
	var walk func(r *rdd.RDD)
	walk = func(r *rdd.RDD) {
		if seen[r.ID] {
			return
		}
		seen[r.ID] = true
		if r.Cached && s.runner.CachedComplete(r) {
			return
		}
		for _, d := range r.Deps {
			switch dep := d.(type) {
			case *rdd.NarrowDep:
				walk(dep.P)
			case *rdd.ShuffleDep:
				live[dep] = true
			}
		}
	}
	walk(st.Final)
	return live
}

func stageInfos(topo []*Stage) []StageInfo {
	infos := make([]StageInfo, len(topo))
	for i, st := range topo {
		psigs := make([]string, 0, len(st.Parents))
		for _, p := range st.Parents {
			psigs = append(psigs, p.Signature)
		}
		infos[i] = StageInfo{
			ID:         st.ID,
			Signature:  st.Signature,
			Name:       st.Name(),
			ParentSigs: psigs,
			Fixed:      st.Fixed(),
			IsJoinLike: st.IsJoinLike(),
			IsResult:   st.IsResult,
			NumTasks:   st.NumTasks(),
			Partition:  st.PartitionerName(),
			PinKey:     st.PinKey(),
		}
	}
	return infos
}

// prepareRangeBounds materializes sampled range-partitioner bounds for a
// stage whose output shuffle wants range partitioning (Spark's sampling
// pass before a range shuffle).
func (s *Scheduler) prepareRangeBounds(target *rdd.RDD, st *Stage) error {
	dep := st.OutDep
	if dep == nil || !dep.WantRange {
		return nil
	}
	rp, ok := dep.Part.(*rdd.RangePartitioner)
	if !ok {
		return fmt.Errorf("dag: WantRange dep with %T partitioner", dep.Part)
	}
	if len(rp.Bounds()) > 0 {
		return nil
	}
	// Every split is sampled, as Spark does: a subset of a range-partitioned
	// parent would be a badly clustered sample.
	n := dep.P.NumParts
	var parts [][]rdd.Row
	for split := 0; split < n; split++ {
		rows, err := s.runner.Materialize(dep.P, split)
		if err != nil {
			return fmt.Errorf("dag: range sampling: %w", err)
		}
		parts = append(parts, rows)
	}
	sample := rdd.SampleKeysForRange(parts, 20)
	fresh := rdd.NewRangePartitionerFromSample(rp.NumPartitions(), sample)
	relinkPartitioner(target, rp, fresh)
	dep.Part = fresh
	dep.WantRange = false
	return nil
}

// relinkPartitioner replaces every alias of old across the lineage of
// target, preserving co-partitioning identity.
func relinkPartitioner(target *rdd.RDD, old, fresh rdd.Partitioner) {
	for _, r := range target.Lineage() {
		if r.Part != nil && r.Part.Identity() == old.Identity() {
			r.Part = fresh
		}
	}
	for _, r := range target.Lineage() {
		for _, d := range r.Deps {
			if sd, ok := d.(*rdd.ShuffleDep); ok && sd.Part != nil && sd.Part.Identity() == old.Identity() {
				sd.Part = fresh
			}
		}
	}
}

// applyConfig rewrites the job's RDD graph according to the configurator:
// tunable shuffles adopt the configured partitioner and count, tunable
// sources are re-split, and fixed stages optionally gain an inserted
// repartition phase. It runs before stage ids are assigned, so inserted
// phases become ordinary stages.
func (s *Scheduler) applyConfig(target *rdd.RDD) error {
	rdd.PropagateCounts(target)
	_, topo := buildStages(target, s.warmFn())
	for _, st := range topo {
		spec, ok := s.Configurator.Scheme(st.Signature)
		if !ok {
			continue
		}
		if spec.NumPartitions <= 0 || !rdd.ValidScheme(spec.Scheme) {
			return fmt.Errorf("dag: invalid scheme %q x%d for stage %s", spec.Scheme, spec.NumPartitions, st.Signature)
		}
		// A stage whose chain contains an already-materialized cached RDD is
		// pinned to that RDD's partitioning: retuning it would invalidate the
		// cache and force a full upstream recomputation (Spark cannot change
		// the partitioning of a materialized cached RDD either).
		if s.stageHasMaterializedCache(st) {
			continue
		}
		if len(st.InDeps) > 0 {
			if !st.Fixed() || spec.Override {
				s.retuneStageInput(target, st, spec)
			} else if spec.InsertRepartition {
				s.insertRepartition(target, st, spec)
			}
			continue
		}
		// Source stage.
		src := st.sourceRDD()
		if src == nil {
			continue
		}
		if !src.Fixed || spec.Override {
			src.NumParts = spec.NumPartitions
		} else if spec.InsertRepartition {
			s.insertRepartition(target, st, spec)
		}
	}
	rdd.PropagateCounts(target)
	return nil
}

// stageHasMaterializedCache reports whether any RDD in the stage's narrow
// chain is cached and fully resident.
func (s *Scheduler) stageHasMaterializedCache(st *Stage) bool {
	found := false
	walkNarrow(st.Final, func(r *rdd.RDD) {
		if r.Cached && s.runner.CachedComplete(r) {
			found = true
		}
	})
	return found
}

func makePartitioner(spec SchemeSpec) (rdd.Partitioner, bool) {
	if spec.Scheme == rdd.SchemeRange {
		return rdd.NewRangePartitionerFromSample(spec.NumPartitions, nil), true
	}
	return rdd.NewHashPartitioner(spec.NumPartitions), false
}

// retuneStageInput points every tunable input shuffle of st at one shared
// new partitioner (shared instance => co-partitioned inputs for joins).
func (s *Scheduler) retuneStageInput(target *rdd.RDD, st *Stage, spec SchemeSpec) {
	part, wantRange := makePartitioner(spec)
	for _, dep := range st.InDeps {
		if dep.Fixed && !spec.Override {
			continue
		}
		old := dep.Part
		dep.Part = part
		dep.WantRange = wantRange
		if old != nil {
			relinkPartitioner(target, old, part)
		}
	}
}

// insertRepartition splits a fixed stage: the RDD directly consuming the
// fixed input keeps its pinned partitioning and a new repartition shuffle is
// inserted between it and the rest of the stage (paper Algorithm 3's
// "repartition stage" for user-fixed schemes).
func (s *Scheduler) insertRepartition(target *rdd.RDD, st *Stage, spec SchemeSpec) {
	// Locate the head RDD of the stage: the one owning the fixed input dep
	// (or the source itself for source stages).
	var head *rdd.RDD
	walkNarrow(st.Final, func(r *rdd.RDD) {
		if head != nil {
			return
		}
		if len(st.InDeps) > 0 {
			for _, d := range r.Deps {
				if sd, ok := d.(*rdd.ShuffleDep); ok {
					for _, in := range st.InDeps {
						if sd == in {
							head = r
						}
					}
				}
			}
		} else if r.Gen != nil {
			head = r
		}
	})
	if head == nil || head == target || head == st.Final && st.IsResult {
		return
	}
	part, wantRange := makePartitioner(spec)
	rep := head.Repartition(part.NumPartitions())
	repDep := rep.Deps[0].(*rdd.ShuffleDep)
	repDep.Part = part
	repDep.WantRange = wantRange
	repDep.Fixed = true // the optimizer chose it; don't retune it again
	rep.Part = part

	// Rewire all narrow consumers and downstream shuffles of head
	// (other than rep's own dependency) to read from rep.
	for _, r := range target.Lineage() {
		if r == rep {
			continue
		}
		for _, d := range r.Deps {
			switch dep := d.(type) {
			case *rdd.NarrowDep:
				if dep.P == head {
					dep.P = rep
				}
			case *rdd.ShuffleDep:
				if dep.P == head && dep != repDep {
					dep.P = rep
				}
			}
		}
	}
	rdd.PropagateCounts(target)
}
