// Package dag implements the DAG scheduler: it turns RDD lineage graphs
// into stages split at shuffle boundaries (ShuffleMapStage / ResultStage),
// assigns stable stage signatures, applies CHOPPER's per-stage partitioning
// configuration (including repartition-phase insertion for user-fixed
// stages), and drives stage execution through a StageRunner.
package dag

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"chopper/internal/rdd"
)

// Stage is a set of pipelined tasks bounded by shuffle dependencies.
type Stage struct {
	// ID is assigned in topological submission order, continuing across
	// jobs of a workload (Spark's global stage counter).
	ID int

	// Final is the last RDD of the stage: for a shuffle map stage, the
	// map-side parent of OutDep; for the result stage, the action target.
	Final *rdd.RDD

	// OutDep is the shuffle this stage writes; nil for the result stage.
	OutDep *rdd.ShuffleDep

	// InDeps are the shuffle dependencies read by RDDs inside this stage.
	InDeps []*rdd.ShuffleDep

	// Parents are the stages producing InDeps, in InDeps order.
	Parents []*Stage

	// Signature identifies stages that invoke identical transformation
	// chains; iterative stages share a signature (paper Section III-A).
	Signature string

	IsResult bool
}

// NumTasks reports the task count (one per partition of Final).
func (s *Stage) NumTasks() int { return s.Final.NumParts }

// Name is a short human-readable label.
func (s *Stage) Name() string {
	if s.IsResult {
		return "result:" + s.Final.Op
	}
	return "map:" + s.Final.Op
}

// PartitionerName reports the scheme partitioning this stage's input:
// the first input shuffle's partitioner, or "input" for source stages.
func (s *Stage) PartitionerName() string {
	if len(s.InDeps) > 0 {
		return s.InDeps[0].Part.Name()
	}
	return "input"
}

// Fixed reports whether the stage's partitioning is user-pinned: every input
// shuffle is fixed, or (for source stages) the source itself is pinned.
func (s *Stage) Fixed() bool {
	if len(s.InDeps) > 0 {
		for _, d := range s.InDeps {
			if !d.Fixed {
				return false
			}
		}
		return true
	}
	src := s.sourceRDD()
	return src != nil && src.Fixed
}

// sourceRDD finds the generator source in this stage's narrow chain, if any.
func (s *Stage) sourceRDD() *rdd.RDD {
	var found *rdd.RDD
	walkNarrow(s.Final, func(r *rdd.RDD) {
		if r.Gen != nil || (len(r.Deps) == 0 && r.Compute != nil) {
			found = r
		}
	})
	return found
}

// PinKey identifies the cached RDD (by its chain signature) whose
// partitioning this stage inherits, or "" when the stage is free. Stages
// sharing a PinKey have a partition dependency: once the cached RDD is
// materialized, their task counts are all determined by its partitioning,
// so Algorithm 3 groups them and assigns one scheme.
func (s *Stage) PinKey() string {
	key := ""
	walkNarrow(s.Final, func(r *rdd.RDD) {
		if r.Cached && key == "" {
			key = signature(r)
		}
	})
	return key
}

// IsJoinLike reports whether the stage contains a cogroup/join operator —
// the grouping trigger of Algorithm 3.
func (s *Stage) IsJoinLike() bool {
	join := false
	walkNarrow(s.Final, func(r *rdd.RDD) {
		if r.Op == "cogroup" || r.Op == "join" {
			join = true
		}
	})
	return join
}

// walkNarrow visits every RDD reachable from r through narrow dependencies
// (the RDDs belonging to r's stage), including r itself.
func walkNarrow(r *rdd.RDD, visit func(*rdd.RDD)) {
	seen := map[int]bool{}
	var walk func(*rdd.RDD)
	walk = func(n *rdd.RDD) {
		if seen[n.ID] {
			return
		}
		seen[n.ID] = true
		visit(n)
		for _, d := range n.Deps {
			if nd, ok := d.(*rdd.NarrowDep); ok {
				walk(nd.P)
			}
		}
	}
	walk(r)
}

// BuildPlan constructs the stage graph for a job ending at target without
// executing anything: the result stage plus all stages in parent-before-child
// topological order, exactly as RunJob would build them (stage IDs are not
// assigned). External verifiers (internal/plan/verify) use it to inspect the
// plan the scheduler is about to run. warm has the same meaning as in
// buildStages. The lineage of target must be acyclic; callers that cannot
// guarantee that must check first (see verify.Plan), since a cyclic shuffle
// graph would recurse forever.
func BuildPlan(target *rdd.RDD, warm func(*rdd.RDD) bool) (*Stage, []*Stage) {
	return buildStages(target, warm)
}

// buildStages constructs the stage graph for a job ending at target.
// It returns the result stage and all stages in parent-before-child
// topological order (result last). Stage IDs are not assigned here.
// warm, when non-nil, reports whether a cached RDD is already materialized;
// signatures distinguish cold (computing) from warm (cache-reading) passes
// over the same chain, whose performance profiles are entirely different.
func buildStages(target *rdd.RDD, warm func(*rdd.RDD) bool) (*Stage, []*Stage) {
	byDep := map[*rdd.ShuffleDep]*Stage{}
	var topo []*Stage

	var stageFor func(final *rdd.RDD, out *rdd.ShuffleDep) *Stage
	stageFor = func(final *rdd.RDD, out *rdd.ShuffleDep) *Stage {
		st := &Stage{Final: final, OutDep: out, IsResult: out == nil}
		walkNarrow(final, func(r *rdd.RDD) {
			for _, d := range r.Deps {
				if sd, ok := d.(*rdd.ShuffleDep); ok {
					st.InDeps = append(st.InDeps, sd)
				}
			}
		})
		// Deterministic order of input deps (walk order depends on DFS;
		// sort by parent RDD id for stability).
		sort.Slice(st.InDeps, func(i, j int) bool {
			return st.InDeps[i].P.ID < st.InDeps[j].P.ID
		})
		for _, sd := range st.InDeps {
			parent, ok := byDep[sd]
			if !ok {
				parent = stageFor(sd.P, sd)
				byDep[sd] = parent
			}
			st.Parents = append(st.Parents, parent)
		}
		st.Signature = signatureWith(st.Final, warm)
		topo = append(topo, st)
		return st
	}
	result := stageFor(target, nil)
	return result, topo
}

// signature hashes the pure operator structure of a stage's narrow chain
// plus the shape of its inputs — stable across runs and cache states. Used
// for partition-dependency (pin) keys.
func signature(final *rdd.RDD) string { return signatureWith(final, nil) }

// signatureWith is signature with an optional warm-cache predicate: a
// cached RDD that is already materialized contributes a "cached[...]"
// marker instead of its compute chain, so a cold first pass and warm
// subsequent passes get distinct identifiers (their cost profiles differ
// by an order of magnitude), while iterations — all warm — still share one
// signature. CHOPPER's configuration tuples are keyed by this (Fig. 6).
func signatureWith(final *rdd.RDD, warm func(*rdd.RDD) bool) string {
	var expr func(r *rdd.RDD) string
	memo := map[int]string{}
	expr = func(r *rdd.RDD) string {
		if s, ok := memo[r.ID]; ok {
			return s
		}
		var parts []string
		for _, d := range r.Deps {
			switch dep := d.(type) {
			case *rdd.NarrowDep:
				parts = append(parts, expr(dep.P))
			case *rdd.ShuffleDep:
				kind := "shuffle"
				if dep.Agg != nil {
					kind = "shuffleAgg"
				}
				// Include the upstream chain's structure (not its data or
				// partitioning) so distinct pipelines ending in the same
				// operator get distinct signatures, while iterations of one
				// pipeline still collide as intended.
				up := sha256.Sum256([]byte(expr(dep.P)))
				parts = append(parts, kind+":"+hex.EncodeToString(up[:3]))
			}
		}
		s := r.Op + "(" + strings.Join(parts, ",") + ")"
		if r.Cached && warm != nil && warm(r) {
			sum := sha256.Sum256([]byte(s))
			s = "cached[" + hex.EncodeToString(sum[:3]) + "]"
		}
		memo[r.ID] = s
		return s
	}
	sum := sha256.Sum256([]byte(expr(final)))
	return hex.EncodeToString(sum[:6])
}

// Waves groups the non-result stages into dependency waves: every stage in
// wave k has all parents in waves < k. Within a wave, order is by build
// order (deterministic).
func Waves(topo []*Stage) [][]*Stage {
	done := map[*Stage]bool{}
	var waves [][]*Stage
	remaining := make([]*Stage, 0, len(topo))
	for _, st := range topo {
		if !st.IsResult {
			remaining = append(remaining, st)
		}
	}
	for len(remaining) > 0 {
		var wave, rest []*Stage
		for _, st := range remaining {
			ready := true
			for _, p := range st.Parents {
				if !done[p] {
					ready = false
					break
				}
			}
			if ready {
				wave = append(wave, st)
			} else {
				rest = append(rest, st)
			}
		}
		if len(wave) == 0 {
			panic("dag: dependency cycle among stages")
		}
		for _, st := range wave {
			done[st] = true
		}
		waves = append(waves, wave)
		remaining = rest
	}
	return waves
}

// String renders a stage for logs.
func (s *Stage) String() string {
	return fmt.Sprintf("Stage(%d %s sig=%s tasks=%d)", s.ID, s.Name(), s.Signature, s.NumTasks())
}
