// Package verify is the plan-IR invariant checker of chopperverify: a
// static analysis over the stage graphs the DAG scheduler builds from RDD
// lineage. CHOPPER's optimizer rewrites partitioners, counts and even the
// graph itself (repartition insertion) between jobs; each rewrite must
// preserve the structural invariants the paper's algorithms assume. The
// checker asserts, for every plan:
//
//	acyclic            — the RDD lineage and the stage graph contain no cycle
//	stage-boundary     — stages split exactly at wide (shuffle) dependencies:
//	                     a stage's InDeps are precisely the shuffle deps
//	                     reachable through its narrow chain, and each parent
//	                     stage produces exactly the dep it is linked through
//	copartition        — every cogroup/join consumes all of its inputs under
//	                     one partitioner identity and one partition count
//	                     (paper Section III-C)
//	partition-bounds   — partition counts are positive, below the configured
//	                     maximum, and estimated per-partition bytes fit the
//	                     executor storage pool (paper Section III memory
//	                     bounds)
//	partitioner-compat — every shuffle has a usable partitioner whose count
//	                     matches its consumer, range shuffles carry range
//	                     partitioners, and range bounds are sorted and
//	                     mutually comparable key types
//
// The checks are pure functions over the plan: nothing executes and nothing
// is mutated, so the scheduler can run them on every job (Scheduler.Verify)
// at negligible cost.
package verify

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"chopper/internal/cluster"
	"chopper/internal/dag"
	"chopper/internal/rdd"
)

// Violation is one invariant breach found in a plan.
type Violation struct {
	// Check names the violated invariant (the list in the package comment).
	Check string
	// Stage labels the offending stage ("map:reduceByKey sig=ab12cd") or the
	// offending RDD for pre-stage checks.
	Stage string
	// Msg explains the breach.
	Msg string
}

// String renders the violation for logs and errors.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: %s", v.Check, v.Stage, v.Msg)
}

// Limits bounds the partition-count check (paper Section III: partition
// sizes must respect per-node memory).
type Limits struct {
	// MaxPartitions caps any RDD's partition count. Zero disables the check.
	MaxPartitions int
	// MaxPartitionBytes caps the estimated logical bytes of one partition.
	// Zero disables the check.
	MaxPartitionBytes int64
}

// storageFraction mirrors exec.StorageFraction (kept in sync by a test in
// this package; verify must not import the execution engine).
const storageFraction = 0.6

// DefaultLimits derives limits from a cluster topology: a partition must fit
// the executor storage pool (ExecutorMemGB x storage fraction — a larger one
// could never be cached or joined in memory), and the partition count may
// not exceed 100 tasks per core (beyond the paper's densest 2000-partition
// sweeps, where per-task overhead already dominates).
func DefaultLimits(topo *cluster.Topology) Limits {
	maxParts := 2000
	if topo != nil {
		if n := 100 * topo.TotalWorkerCores(); n > maxParts {
			maxParts = n
		}
	}
	return Limits{
		MaxPartitions:     maxParts,
		MaxPartitionBytes: int64(cluster.ExecutorMemGB * storageFraction * 1e9),
	}
}

// Plan verifies the full job plan for an action target: lineage acyclicity
// first (a cyclic lineage cannot even be staged), then every stage-graph
// invariant. warm has the dag.BuildPlan meaning (nil is fine).
func Plan(final *rdd.RDD, warm func(*rdd.RDD) bool, lim Limits) []Violation {
	if vs := lineageCycles(final); len(vs) > 0 {
		return vs
	}
	result, topo := dag.BuildPlan(final, warm)
	return Stages(result, topo, lim)
}

// Stages verifies an already-built stage graph (result plus topological
// order, as produced by dag.BuildPlan or handed to Scheduler.Verify).
func Stages(result *dag.Stage, topo []*dag.Stage, lim Limits) []Violation {
	var out []Violation
	// RDD-level cycles first: everything below walks lineage and would not
	// terminate predictably on a cyclic graph.
	seenRDD := map[int]bool{}
	for _, st := range topo {
		if vs := lineageCycles(st.Final); len(vs) > 0 {
			return vs
		}
		for _, r := range st.Final.Lineage() {
			seenRDD[r.ID] = true
		}
	}
	if vs := stageCycles(topo); len(vs) > 0 {
		return vs
	}
	out = append(out, checkResult(result, topo)...)
	for _, st := range topo {
		out = append(out, checkBoundaries(st)...)
	}
	out = append(out, checkRDDs(topo, lim)...)
	return out
}

// stageLabel names a stage in violations (IDs are unassigned at verify
// time, so the signature identifies it).
func stageLabel(st *dag.Stage) string {
	return fmt.Sprintf("%s sig=%s", st.Name(), st.Signature)
}

func rddLabel(r *rdd.RDD) string {
	return fmt.Sprintf("rdd %d (%s)", r.ID, r.Op)
}

// lineageCycles detects cycles in the RDD dependency graph via a DFS with a
// recursion stack.
func lineageCycles(final *rdd.RDD) []Violation {
	const (
		visiting = 1
		done     = 2
	)
	state := map[int]int{}
	var out []Violation
	var walk func(r *rdd.RDD)
	walk = func(r *rdd.RDD) {
		switch state[r.ID] {
		case done:
			return
		case visiting:
			out = append(out, Violation{
				Check: "acyclic",
				Stage: rddLabel(r),
				Msg:   "RDD lineage contains a dependency cycle",
			})
			return
		}
		state[r.ID] = visiting
		for _, d := range r.Deps {
			walk(d.Parent())
		}
		state[r.ID] = done
	}
	walk(final)
	return out
}

// stageCycles detects cycles among stage parent links.
func stageCycles(topo []*dag.Stage) []Violation {
	const (
		visiting = 1
		done     = 2
	)
	state := map[*dag.Stage]int{}
	var out []Violation
	var walk func(st *dag.Stage)
	walk = func(st *dag.Stage) {
		switch state[st] {
		case done:
			return
		case visiting:
			out = append(out, Violation{
				Check: "acyclic",
				Stage: stageLabel(st),
				Msg:   "stage graph contains a dependency cycle",
			})
			return
		}
		state[st] = visiting
		for _, p := range st.Parents {
			walk(p)
		}
		state[st] = done
	}
	for _, st := range topo {
		walk(st)
	}
	return out
}

// checkResult asserts exactly one result stage, which is the declared one.
func checkResult(result *dag.Stage, topo []*dag.Stage) []Violation {
	var out []Violation
	results := 0
	seen := false
	for _, st := range topo {
		if st.IsResult {
			results++
		}
		if st == result {
			seen = true
		}
		if st.IsResult != (st.OutDep == nil) {
			out = append(out, Violation{
				Check: "stage-boundary",
				Stage: stageLabel(st),
				Msg:   "result stages must have no output shuffle and map stages exactly one",
			})
		}
	}
	if results != 1 || !seen || !result.IsResult {
		out = append(out, Violation{
			Check: "stage-boundary",
			Stage: stageLabel(result),
			Msg:   fmt.Sprintf("plan must contain exactly one result stage (found %d)", results),
		})
	}
	return out
}

// narrowShuffleDeps collects the shuffle dependencies reachable from final
// through narrow dependencies only — the set that defines the stage's true
// input boundary.
func narrowShuffleDeps(final *rdd.RDD) []*rdd.ShuffleDep {
	var out []*rdd.ShuffleDep
	seen := map[int]bool{}
	var walk func(r *rdd.RDD)
	walk = func(r *rdd.RDD) {
		if seen[r.ID] {
			return
		}
		seen[r.ID] = true
		for _, d := range r.Deps {
			switch dep := d.(type) {
			case *rdd.NarrowDep:
				walk(dep.P)
			case *rdd.ShuffleDep:
				out = append(out, dep)
			}
		}
	}
	walk(final)
	return out
}

// checkBoundaries asserts the stage is bounded exactly by its wide deps:
// InDeps is precisely the narrow-reachable shuffle-dep set, each parent
// stage produces the dep it is linked through, and a map stage's output
// shuffle reads the stage's own final RDD.
func checkBoundaries(st *dag.Stage) []Violation {
	var out []Violation
	label := stageLabel(st)

	reach := narrowShuffleDeps(st.Final)
	inSet := map[*rdd.ShuffleDep]bool{}
	for _, d := range st.InDeps {
		if inSet[d] {
			out = append(out, Violation{Check: "stage-boundary", Stage: label,
				Msg: "duplicate input shuffle dependency"})
		}
		inSet[d] = true
	}
	for _, d := range reach {
		if !inSet[d] {
			out = append(out, Violation{Check: "stage-boundary", Stage: label,
				Msg: fmt.Sprintf("shuffle dependency on %s is reachable through the narrow chain but missing from InDeps", rddLabel(d.P))})
		}
		delete(inSet, d)
	}
	for d := range inSet {
		out = append(out, Violation{Check: "stage-boundary", Stage: label,
			Msg: fmt.Sprintf("InDeps lists a shuffle dependency on %s that is not reachable through the narrow chain", rddLabel(d.P))})
	}

	if len(st.Parents) != len(st.InDeps) {
		out = append(out, Violation{Check: "stage-boundary", Stage: label,
			Msg: fmt.Sprintf("%d parent stages for %d input shuffles", len(st.Parents), len(st.InDeps))})
	} else {
		for i, p := range st.Parents {
			if p.OutDep != st.InDeps[i] {
				out = append(out, Violation{Check: "stage-boundary", Stage: label,
					Msg: fmt.Sprintf("parent %s does not produce input shuffle %d", stageLabel(p), i)})
			}
		}
	}
	if st.OutDep != nil && st.OutDep.P != st.Final {
		out = append(out, Violation{Check: "stage-boundary", Stage: label,
			Msg: "output shuffle does not read the stage's final RDD"})
	}
	return out
}

// checkRDDs runs the per-RDD invariants (co-partitioning, bounds,
// partitioner compatibility) over every RDD reachable from any stage.
func checkRDDs(topo []*dag.Stage, lim Limits) []Violation {
	var rdds []*rdd.RDD
	seen := map[int]bool{}
	for _, st := range topo {
		for _, r := range st.Final.Lineage() {
			if !seen[r.ID] {
				seen[r.ID] = true
				rdds = append(rdds, r)
			}
		}
	}
	sort.Slice(rdds, func(i, j int) bool { return rdds[i].ID < rdds[j].ID })

	est := estimateBytes(rdds)
	var out []Violation
	for _, r := range rdds {
		out = append(out, checkCoPartition(r)...)
		out = append(out, checkBounds(r, est[r.ID], lim)...)
		out = append(out, checkPartitioners(r)...)
	}
	return out
}

// checkCoPartition asserts the paper's join invariant: every input of a
// cogroup (and therefore of join and the outer joins built on it) arrives
// under the cogroup's own partitioner identity and partition count, whether
// it comes through a shuffle or a co-partitioned narrow dependency.
func checkCoPartition(r *rdd.RDD) []Violation {
	if r.Op != "cogroup" {
		return nil
	}
	label := rddLabel(r)
	if r.Part == nil {
		return []Violation{{Check: "copartition", Stage: label,
			Msg: "cogroup without a partitioner"}}
	}
	var out []Violation
	for i, d := range r.Deps {
		switch dep := d.(type) {
		case *rdd.ShuffleDep:
			if dep.Part == nil {
				continue // reported by partitioner-compat
			}
			if dep.Part.Identity() != r.Part.Identity() {
				out = append(out, Violation{Check: "copartition", Stage: label,
					Msg: fmt.Sprintf("input %d is shuffled by a different partitioner than the cogroup's", i)})
			}
			if dep.Part.NumPartitions() != r.NumParts {
				out = append(out, Violation{Check: "copartition", Stage: label,
					Msg: fmt.Sprintf("input %d delivers %d partitions, cogroup has %d", i, dep.Part.NumPartitions(), r.NumParts)})
			}
		case *rdd.NarrowDep:
			p := dep.P
			if p.Part == nil || p.Part.Identity() != r.Part.Identity() {
				out = append(out, Violation{Check: "copartition", Stage: label,
					Msg: fmt.Sprintf("narrow input %d (%s) is not co-partitioned with the cogroup", i, p.Op)})
			} else if p.NumParts != r.NumParts {
				out = append(out, Violation{Check: "copartition", Stage: label,
					Msg: fmt.Sprintf("narrow input %d (%s) has %d partitions, cogroup has %d", i, p.Op, p.NumParts, r.NumParts)})
			}
		}
	}
	return out
}

// estimateBytes propagates logical-size estimates down the lineage: sources
// contribute SourceBytes, every derived RDD the sum of its parents. The
// estimate is deliberately conservative (filters and combines shrink data;
// the estimate does not), so the bounds check never under-reports.
func estimateBytes(rdds []*rdd.RDD) map[int]int64 {
	memo := map[int]int64{}
	var est func(r *rdd.RDD) int64
	est = func(r *rdd.RDD) int64 {
		if b, ok := memo[r.ID]; ok {
			return b
		}
		memo[r.ID] = 0 // cycle guard; real cycles are caught earlier
		var b int64
		if len(r.Deps) == 0 {
			b = r.SourceBytes
		}
		for _, d := range r.Deps {
			b += est(d.Parent())
		}
		memo[r.ID] = b
		return b
	}
	for _, r := range rdds {
		est(r)
	}
	return memo
}

// checkBounds asserts positive, capped partition counts and per-partition
// estimated bytes within the executor storage pool.
func checkBounds(r *rdd.RDD, estBytes int64, lim Limits) []Violation {
	label := rddLabel(r)
	if r.NumParts <= 0 {
		return []Violation{{Check: "partition-bounds", Stage: label,
			Msg: fmt.Sprintf("non-positive partition count %d", r.NumParts)}}
	}
	var out []Violation
	if lim.MaxPartitions > 0 && r.NumParts > lim.MaxPartitions {
		out = append(out, Violation{Check: "partition-bounds", Stage: label,
			Msg: fmt.Sprintf("%d partitions exceeds the configured maximum %d", r.NumParts, lim.MaxPartitions)})
	}
	if lim.MaxPartitionBytes > 0 && estBytes > 0 {
		per := estBytes / int64(r.NumParts)
		if per > lim.MaxPartitionBytes {
			out = append(out, Violation{Check: "partition-bounds", Stage: label,
				Msg: fmt.Sprintf("estimated %d bytes per partition exceeds the %d-byte memory bound (%d bytes over %d partitions)",
					per, lim.MaxPartitionBytes, estBytes, r.NumParts)})
		}
	}
	return out
}

// checkPartitioners asserts shuffle partitioner sanity: present, positive,
// count-consistent with the consuming RDD, identity-consistent with the
// consumer's own partitioner, range-typed when range bounds were requested,
// and with sorted, comparable range bounds.
func checkPartitioners(r *rdd.RDD) []Violation {
	var out []Violation
	label := rddLabel(r)
	for i, d := range r.Deps {
		dep, ok := d.(*rdd.ShuffleDep)
		if !ok {
			continue
		}
		if dep.Part == nil {
			out = append(out, Violation{Check: "partitioner-compat", Stage: label,
				Msg: fmt.Sprintf("input shuffle %d has no partitioner", i)})
			continue
		}
		if dep.Part.NumPartitions() <= 0 {
			out = append(out, Violation{Check: "partitioner-compat", Stage: label,
				Msg: fmt.Sprintf("input shuffle %d has a non-positive partition count", i)})
			continue
		}
		if dep.Part.NumPartitions() != r.NumParts {
			out = append(out, Violation{Check: "partitioner-compat", Stage: label,
				Msg: fmt.Sprintf("input shuffle %d partitions into %d but the RDD has %d partitions (count propagation missed)",
					i, dep.Part.NumPartitions(), r.NumParts)})
		}
		if r.Part != nil && r.Part.Identity() != dep.Part.Identity() && r.Op != "cogroup" {
			// cogroup identity errors are reported by copartition with a
			// sharper message.
			out = append(out, Violation{Check: "partitioner-compat", Stage: label,
				Msg: fmt.Sprintf("RDD advertises a different partitioner than its input shuffle %d delivers", i)})
		}
		rp, isRange := dep.Part.(*rdd.RangePartitioner)
		if dep.WantRange && !isRange {
			out = append(out, Violation{Check: "partitioner-compat", Stage: label,
				Msg: fmt.Sprintf("input shuffle %d wants range bounds but carries a %s partitioner", i, dep.Part.Name())})
		}
		if isRange {
			out = append(out, checkRangeBounds(label, i, rp)...)
		}
	}
	return out
}

// checkRangeBounds asserts range bounds are mutually comparable (one key
// type) and sorted ascending. Empty bounds are legal: the scheduler samples
// them right before the map stage runs.
func checkRangeBounds(label string, depIdx int, rp *rdd.RangePartitioner) (out []Violation) {
	bounds := rp.Bounds()
	if len(bounds) == 0 {
		return nil
	}
	// CompareKeys panics on mixed or unsupported key types; that is exactly
	// the key-type incompatibility this check exists to report.
	defer func() {
		if rec := recover(); rec != nil {
			out = append(out, Violation{Check: "partitioner-compat", Stage: label,
				Msg: fmt.Sprintf("input shuffle %d has range bounds with incompatible key types: %v", depIdx, rec)})
		}
	}()
	for i := 1; i < len(bounds); i++ {
		if rdd.CompareKeys(bounds[i-1], bounds[i]) > 0 {
			out = append(out, Violation{Check: "partitioner-compat", Stage: label,
				Msg: fmt.Sprintf("input shuffle %d has unsorted range bounds (bound %d > bound %d)", depIdx, i-1, i)})
			return out
		}
	}
	return out
}

// ErrPlan is what every error Error returns wraps: the plan a job asked
// for breaks an invariant, so no run of it can go ahead.
var ErrPlan = errors.New("plan verification failed")

// Error bundles violations into one error for strict callers.
func Error(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = v.String()
	}
	return fmt.Errorf("%w:\n\t%s", ErrPlan, strings.Join(msgs, "\n\t"))
}

// Hook returns a strict Scheduler.Verify implementation: any violation
// aborts the job with an error listing every breach. This is the default
// for sessions and tests.
func Hook(lim Limits) func(result *dag.Stage, topo []*dag.Stage) error {
	return func(result *dag.Stage, topo []*dag.Stage) error {
		return Error(Stages(result, topo, lim))
	}
}

// ObservingHook returns a Scheduler.Verify implementation that reports
// violations to observe and never aborts the job — the production mode
// (observe typically logs) and the collection mode of cmd/chopperverify.
func ObservingHook(lim Limits, observe func([]Violation)) func(result *dag.Stage, topo []*dag.Stage) error {
	return func(result *dag.Stage, topo []*dag.Stage) error {
		if vs := Stages(result, topo, lim); len(vs) > 0 && observe != nil {
			observe(vs)
		}
		return nil
	}
}
