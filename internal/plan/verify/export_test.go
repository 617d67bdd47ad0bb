package verify

import (
	"chopper/internal/dag"
	"chopper/internal/rdd"
)

// Plan serves only the verify_test package.

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
