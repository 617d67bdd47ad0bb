package core

import (
	"fmt"
	"strings"

	"chopper/internal/rdd"
)

// SchemeViolation is one invariant breach in an optimizer emission: the
// config-level half of chopperverify (the plan-level half lives in
// internal/plan/verify and checks the stage graph the scheduler actually
// builds after applying a configuration).
type SchemeViolation struct {
	// Signature is the stage the entry targets ("" for workload-level
	// breaches).
	Signature string
	// Check names the violated invariant: "signature", "scheme", "count",
	// "fixed" or "copartition".
	Check string
	// Msg explains the breach.
	Msg string
}

// String renders the violation for logs and errors.
func (v SchemeViolation) String() string {
	if v.Signature == "" {
		return fmt.Sprintf("%s: %s", v.Check, v.Msg)
	}
	return fmt.Sprintf("%s: stage %s: %s", v.Check, v.Signature, v.Msg)
}

// VerifySchemes checks an optimizer output against the workload DAG it was
// computed from:
//
//   - every entry targets a known stage signature, exactly once;
//   - every entry carries a valid scheme and a positive count drawn from the
//     searched candidate grid (a count outside the grid means the optimizer
//     extrapolated its models instead of interpolating them);
//   - under requireCoPartition (Algorithm 3 output), stages of one
//     join/partition-dependency group agree on scheme and count, and
//     user-fixed stages are only ever retuned through an inserted
//     repartition phase.
//
// Algorithm 2's per-stage output is legitimately not co-partitioned, so its
// callers pass requireCoPartition=false.
func VerifySchemes(nodes []*StageNode, schemes []StageScheme, candidates []int, requireCoPartition bool) []SchemeViolation {
	var out []SchemeViolation
	bySig := map[string]*StageNode{}
	for _, n := range nodes {
		bySig[n.Signature] = n
	}
	grid := map[int]bool{}
	for _, c := range candidates {
		grid[c] = true
	}

	entry := map[string]StageScheme{}
	for _, s := range schemes {
		if _, dup := entry[s.Signature]; dup {
			out = append(out, SchemeViolation{Signature: s.Signature, Check: "signature",
				Msg: "duplicate configuration entry"})
			continue
		}
		entry[s.Signature] = s
		n, known := bySig[s.Signature]
		if !known {
			out = append(out, SchemeViolation{Signature: s.Signature, Check: "signature",
				Msg: "entry targets a stage signature absent from the workload DAG"})
			continue
		}
		if !rdd.ValidScheme(s.Partitioner) {
			out = append(out, SchemeViolation{Signature: s.Signature, Check: "scheme",
				Msg: fmt.Sprintf("unknown partitioner scheme %q", s.Partitioner)})
		}
		if s.NumPartitions <= 0 {
			out = append(out, SchemeViolation{Signature: s.Signature, Check: "count",
				Msg: fmt.Sprintf("non-positive partition count %d", s.NumPartitions)})
		} else if len(grid) > 0 && !grid[s.NumPartitions] {
			out = append(out, SchemeViolation{Signature: s.Signature, Check: "count",
				Msg: fmt.Sprintf("partition count %d is outside the searched candidate grid", s.NumPartitions)})
		}
		if requireCoPartition && n.Fixed && !s.InsertRepartition {
			out = append(out, SchemeViolation{Signature: s.Signature, Check: "fixed",
				Msg: "retunes a user-fixed stage without an inserted repartition phase"})
		}
	}

	if !requireCoPartition {
		return out
	}
	for _, g := range regroupDAG(nodes) {
		if len(g.members) < 2 {
			continue
		}
		var first *StageScheme
		var firstSig string
		for _, n := range g.members {
			s, ok := entry[n.Signature]
			if !ok {
				// A missing member keeps its defaults. That is only sound for
				// user-fixed stages the optimizer chose to leave alone.
				if !n.Fixed && len(entryForGroup(entry, g)) > 0 {
					out = append(out, SchemeViolation{Signature: n.Signature, Check: "copartition",
						Msg: "stage belongs to a join group that is retuned but has no entry of its own"})
				}
				continue
			}
			if first == nil {
				first = &s
				firstSig = n.Signature
				continue
			}
			if s.Partitioner != first.Partitioner || s.NumPartitions != first.NumPartitions {
				out = append(out, SchemeViolation{Signature: n.Signature, Check: "copartition",
					Msg: fmt.Sprintf("join group disagrees: %s/%d here vs %s/%d for stage %s",
						s.Partitioner, s.NumPartitions, first.Partitioner, first.NumPartitions, firstSig)})
			}
		}
	}
	return out
}

// entryForGroup returns the group members that do have an entry.
func entryForGroup(entry map[string]StageScheme, g group) []StageScheme {
	var out []StageScheme
	for _, n := range g.members {
		if s, ok := entry[n.Signature]; ok {
			out = append(out, s)
		}
	}
	return out
}

// SchemeError bundles violations into one error for strict callers.
func SchemeError(workload string, vs []SchemeViolation) error {
	if len(vs) == 0 {
		return nil
	}
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = v.String()
	}
	return fmt.Errorf("core: configuration verification failed for %q:\n\t%s",
		workload, strings.Join(msgs, "\n\t"))
}

// checkSchemes runs VerifySchemes on an optimization pass's output and
// routes violations through OnViolation (strict by default: nil OnViolation
// turns any violation into a hard error, the behavior tests want; production
// drivers install a logging handler).
func (p *pass) checkSchemes(schemes []StageScheme, requireCoPartition bool) error {
	vs := VerifySchemes(p.nodes, schemes, p.Candidates, requireCoPartition)
	if len(vs) == 0 {
		return nil
	}
	if p.OnViolation != nil {
		return p.OnViolation(p.workload, vs)
	}
	return SchemeError(p.workload, vs)
}
