package extract

import (
	"fmt"
	"strings"
	"sync"

	"chopper/internal/dag"
)

// StageShape is the cache- and ID-independent fingerprint of one stage:
// its position in the topological order, the final RDD's operator, the
// task count, the output partitioner, and the topo positions of its
// parents (in InDeps order). Two plans with equal shape sequences are
// isomorphic stage graphs. Signatures are deliberately excluded — they
// encode cache warmth, which differs between a cold static build and a
// mid-run capture of the same structure.
type StageShape struct {
	Index       int
	Op          string
	NumTasks    int
	Partitioner string
	IsResult    bool
	Parents     []int
}

// String renders the shape compactly for diffs.
func (s StageShape) String() string {
	kind := "map"
	if s.IsResult {
		kind = "result"
	}
	parents := make([]string, len(s.Parents))
	for i, p := range s.Parents {
		parents[i] = fmt.Sprint(p)
	}
	return fmt.Sprintf("#%d %s op=%s tasks=%d part=%s parents=[%s]",
		s.Index, kind, s.Op, s.NumTasks, s.Partitioner, strings.Join(parents, ","))
}

// Shape canonicalizes a stage plan (as returned by dag.BuildPlan or seen
// by the scheduler's OnPlan hook) into its shape sequence.
func Shape(result *dag.Stage, topo []*dag.Stage) []StageShape {
	index := make(map[*dag.Stage]int, len(topo))
	for i, st := range topo {
		index[st] = i
	}
	out := make([]StageShape, len(topo))
	for i, st := range topo {
		sh := StageShape{
			Index:       i,
			Op:          st.Final.Op,
			NumTasks:    st.NumTasks(),
			Partitioner: st.PartitionerName(),
			IsResult:    st.IsResult,
		}
		for _, p := range st.Parents {
			sh.Parents = append(sh.Parents, index[p])
		}
		out[i] = sh
	}
	return out
}

// CapturedJob is one job's plan as observed at run time, snapshotted to
// shapes at observation time: the scheduler mutates the Stage structs in
// place right after the OnPlan hook returns (cache pruning strips Parents
// and InDeps), so holding the pointers would record the pruned graph, not
// the submitted one.
type CapturedJob struct {
	Shapes []StageShape
}

// Capture records every plan the scheduler submits; its Hook plugs into
// session.Config.OnPlan (or dag.Scheduler.OnPlan directly).
type Capture struct {
	mu   sync.Mutex
	jobs []CapturedJob
}

// Hook returns the observer to install on the scheduler.
func (c *Capture) Hook() func(result *dag.Stage, topo []*dag.Stage) {
	return func(result *dag.Stage, topo []*dag.Stage) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.jobs = append(c.jobs, CapturedJob{Shapes: Shape(result, topo)})
	}
}

// Jobs returns the captured plans in submission order.
func (c *Capture) Jobs() []CapturedJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CapturedJob(nil), c.jobs...)
}

// Drift diffs a static report against the runtime capture of the same
// workload. It returns one human-readable line per divergence; empty means
// the statically extracted plans are isomorphic to the submitted ones.
func Drift(static *Report, runtime []CapturedJob) []string {
	var out []string
	if len(static.Jobs) != len(runtime) {
		out = append(out, fmt.Sprintf("job count: static extracted %d jobs, runtime submitted %d",
			len(static.Jobs), len(runtime)))
	}
	n := min(len(static.Jobs), len(runtime))
	for i := 0; i < n; i++ {
		s := Shape(static.Jobs[i].Plan, static.Jobs[i].Topo)
		out = append(out, diffShapes(fmt.Sprintf("job %d (%s)", i, static.Jobs[i].Action), s, runtime[i].Shapes)...)
	}
	return out
}

// diffShapes compares two shape sequences stage by stage.
func diffShapes(label string, static, runtime []StageShape) []string {
	var out []string
	if len(static) != len(runtime) {
		out = append(out, fmt.Sprintf("%s: stage count: static %d, runtime %d", label, len(static), len(runtime)))
	}
	n := min(len(static), len(runtime))
	for i := 0; i < n; i++ {
		if static[i].String() != runtime[i].String() {
			out = append(out, fmt.Sprintf("%s: stage %d: static %s, runtime %s",
				label, i, static[i], runtime[i]))
		}
	}
	return out
}
