package core

import (
	"fmt"
	"sort"
	"strings"
)

// StageExplanation records why the optimizer chose a stage's scheme.
type StageExplanation struct {
	Signature     string
	Name          string
	Samples       int
	Schemes       []string // schemes with observations
	Group         int      // regrouped-DAG subgraph id (-1 = singleton)
	GroupSize     int
	Fixed         bool
	Decision      *StageScheme // nil when the stage keeps its defaults
	PredictedCost float64      // Eq. 3/4 value of the decision
	Note          string       // why no decision / special handling
}

// Explanation is the full decision report of one optimization.
type Explanation struct {
	Workload   string
	InputBytes float64
	Stages     []StageExplanation
}

// Explain runs the global optimizer and reports, per stage, the data it had
// and the decision it made — the human-readable companion to GenerateConfig.
func (o *Optimizer) Explain(workload string, workloadInput float64) (*Explanation, error) {
	p := o.newPass(workload)
	nodes := p.nodes
	if len(nodes) == 0 {
		return nil, fmt.Errorf("core: no DAG information for workload %q", workload)
	}
	schemes, err := p.globalPar(workloadInput)
	if err != nil {
		return nil, err
	}
	bySig := map[string]*StageScheme{}
	for i := range schemes {
		bySig[schemes[i].Signature] = &schemes[i]
	}
	groups := regroupDAG(nodes)
	groupOf := map[string]int{}
	groupSize := map[string]int{}
	for gi, g := range groups {
		for _, m := range g.members {
			if len(g.members) > 1 {
				groupOf[m.Signature] = gi
			} else {
				groupOf[m.Signature] = -1
			}
			groupSize[m.Signature] = len(g.members)
		}
	}

	ex := &Explanation{Workload: workload, InputBytes: workloadInput}
	for _, n := range nodes {
		se := StageExplanation{
			Signature: n.Signature,
			Name:      n.Name,
			Group:     groupOf[n.Signature],
			GroupSize: groupSize[n.Signature],
			Fixed:     n.Fixed,
		}
		for _, scheme := range []string{"hash", "range", "input"} {
			if k := len(p.samplesFor(n.Signature, scheme)); k > 0 {
				se.Schemes = append(se.Schemes, scheme)
				se.Samples += k
			}
		}
		if d, ok := bySig[n.Signature]; ok {
			se.Decision = d
			se.PredictedCost = d.Cost
			if d.InsertRepartition {
				se.Note = "user-fixed; repartition phase inserted (benefit > gamma)"
			} else if n.Fixed {
				se.Note = "user-fixed but retunable via override"
			}
		} else {
			switch {
			case n.Fixed:
				se.Note = "user-fixed; keeping current partitioning (benefit below gamma)"
			case se.Samples < 4:
				se.Note = "insufficient observations; keeping defaults"
			default:
				se.Note = "no trainable model; keeping defaults"
			}
		}
		ex.Stages = append(ex.Stages, se)
	}
	sort.Slice(ex.Stages, func(i, j int) bool { return ex.Stages[i].Signature < ex.Stages[j].Signature })
	return ex, nil
}

// String renders the report.
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "optimization report: workload=%s input=%.1fGB\n", e.Workload, e.InputBytes/1e9)
	for _, s := range e.Stages {
		fmt.Fprintf(&b, "stage %s %-26s samples=%-3d schemes=%v", s.Signature, s.Name, s.Samples, s.Schemes)
		if s.Group >= 0 {
			fmt.Fprintf(&b, " group=%d(size %d)", s.Group, s.GroupSize)
		}
		if s.Fixed {
			b.WriteString(" fixed")
		}
		b.WriteString("\n")
		if s.Decision != nil {
			fmt.Fprintf(&b, "  -> %s x%d (cost %.3f vs default 1.0)", s.Decision.Partitioner, s.Decision.NumPartitions, s.PredictedCost)
			if s.Decision.InsertRepartition {
				b.WriteString(" +repartition")
			}
			b.WriteString("\n")
		}
		if s.Note != "" {
			fmt.Fprintf(&b, "  note: %s\n", s.Note)
		}
	}
	return b.String()
}
