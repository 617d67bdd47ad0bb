package extract

import (
	"fmt"
	"sort"
	"sync"

	"chopper/internal/dag"
	"chopper/internal/rdd"
)

// KeyShape is the identity-independent fingerprint of one lineage node's
// partitioning-relevant facts: its position in creation order, its operator,
// whether it carries an output partitioner (and which family), which
// co-partition group that partitioner belongs to, and the kinds of its
// dependencies. Partitioner identities are never compared directly — static
// identities are partly synthetic — only their GROUPING pattern is: Group is
// the first-seen ordinal of the node's partitioner identity within the job,
// so "these three nodes share one partitioner, that one has its own" reads
// the same whether the identities are real or modeled.
type KeyShape struct {
	Ord      int
	Op       string
	HasPart  bool
	Scheme   string
	Group    int
	DepKinds string
}

// String renders the shape compactly for diffs.
func (s KeyShape) String() string {
	part := "none"
	if s.HasPart {
		part = fmt.Sprintf("%s/g%d", s.Scheme, s.Group)
	}
	return fmt.Sprintf("#%d op=%s part=%s deps=%s", s.Ord, s.Op, part, s.DepKinds)
}

// StaticKeyShapes canonicalizes a job's inferred KeyFacts into its key-shape
// sequence.
func StaticKeyShapes(facts []KeyFacts) []KeyShape {
	out := make([]KeyShape, len(facts))
	group := map[int64]int{}
	for i, f := range facts {
		sh := KeyShape{Ord: i, Op: f.Op, HasPart: f.HasPart, Scheme: f.Scheme, Group: -1, DepKinds: f.DepKinds}
		if f.HasPart {
			g, ok := group[f.PartID]
			if !ok {
				g = len(group)
				group[f.PartID] = g
			}
			sh.Group = g
		}
		if !f.HasPart {
			sh.Scheme = ""
		}
		out[i] = sh
	}
	return out
}

// runtimeKeyShapes reads the live lineage of a submitted plan's final RDD
// and canonicalizes what the runtime actually built. Nodes are ordered by
// RDD ID (creation order), matching the static rows.
func runtimeKeyShapes(final *rdd.RDD) []KeyShape {
	nodes := append([]*rdd.RDD(nil), final.Lineage()...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	out := make([]KeyShape, len(nodes))
	group := map[int64]int{}
	for i, n := range nodes {
		sh := KeyShape{Ord: i, Op: n.Op, Group: -1}
		if n.Part != nil {
			sh.HasPart = true
			sh.Scheme = n.Part.Name()
			id := n.Part.Identity()
			g, ok := group[id]
			if !ok {
				g = len(group)
				group[id] = g
			}
			sh.Group = g
		}
		kinds := make([]byte, 0, len(n.Deps))
		for _, d := range n.Deps {
			switch d.(type) {
			case *rdd.ShuffleDep:
				kinds = append(kinds, 's')
			default:
				kinds = append(kinds, 'n')
			}
		}
		sh.DepKinds = string(kinds)
		out[i] = sh
	}
	return out
}

// CapturedKeyJob is one job's key shapes as observed at run time,
// snapshotted at observation time like CapturedJob (the scheduler mutates
// plan structs in place right after the hook returns).
type CapturedKeyJob struct {
	Shapes []KeyShape
}

// KeyCapture records the key shapes of every plan the scheduler submits;
// its Hook plugs into session.Config.OnPlan alongside Capture's.
type KeyCapture struct {
	mu   sync.Mutex
	jobs []CapturedKeyJob
}

// Hook returns the observer to install on the scheduler.
func (c *KeyCapture) Hook() func(result *dag.Stage, topo []*dag.Stage) {
	return func(result *dag.Stage, topo []*dag.Stage) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.jobs = append(c.jobs, CapturedKeyJob{Shapes: runtimeKeyShapes(result.Final)})
	}
}

// Jobs returns the captured key shapes in submission order.
func (c *KeyCapture) Jobs() []CapturedKeyJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CapturedKeyJob(nil), c.jobs...)
}

// KeyDrift diffs a static report's inferred key facts against the runtime
// capture of the same workload: one human-readable line per divergence,
// empty when the statically predicted partitioner placement, co-partition
// grouping, and dependency kinds match what the runtime built.
func KeyDrift(static *Report, runtime []CapturedKeyJob) []string {
	var out []string
	if len(static.Jobs) != len(runtime) {
		out = append(out, fmt.Sprintf("job count: static extracted %d jobs, runtime submitted %d",
			len(static.Jobs), len(runtime)))
	}
	n := min(len(static.Jobs), len(runtime))
	for i := 0; i < n; i++ {
		s := StaticKeyShapes(static.Jobs[i].Keys)
		out = append(out, diffKeyShapes(fmt.Sprintf("job %d (%s)", i, static.Jobs[i].Action), s, runtime[i].Shapes)...)
	}
	return out
}

// diffKeyShapes compares two key-shape sequences node by node.
func diffKeyShapes(label string, static, runtime []KeyShape) []string {
	var out []string
	if len(static) != len(runtime) {
		out = append(out, fmt.Sprintf("%s: node count: static %d, runtime %d", label, len(static), len(runtime)))
	}
	n := min(len(static), len(runtime))
	for i := 0; i < n; i++ {
		if static[i].String() != runtime[i].String() {
			out = append(out, fmt.Sprintf("%s: node %d: static %s, runtime %s",
				label, i, static[i], runtime[i]))
		}
	}
	return out
}
