// Package session holds the configuration a chopper.Session and a
// chopper.Tuner are built from. chopper.Option is a func(*Config), and
// callers outside this module cannot name Config, so they can only use the
// public With* options. Code inside the module (the evaluation harness and
// the gate CLIs) writes its own options over the fields the public ones do
// not reach: cost parameters, plan and scheme observers, engine knobs and
// the profiling grid's width.
package session

import (
	"runtime"

	"chopper/internal/cluster"
	"chopper/internal/core"
	"chopper/internal/dag"
	"chopper/internal/exec"
	"chopper/internal/plan/verify"
)

// Config is the configuration of one session (and of a Tuner's runs).
type Config struct {
	Topo         *cluster.Topology
	Params       cluster.CostParams
	Parallelism  int  // spark.default.parallelism
	CoPartition  bool // co-partition-aware scheduler extensions ("chopper" mode)
	Configurator dag.StageConfigurator

	// OnPlan, when set, observes every job's stage plan before verification
	// and cache pruning (dag.Scheduler.OnPlan).
	OnPlan func(result *dag.Stage, topo []*dag.Stage)
	// OnPlanViolations, when set, observes plan-verifier findings instead of
	// letting them abort the job. The default, nil, is strict.
	OnPlanViolations func([]verify.Violation)
	// OnSchemeViolations, when set, handles the configuration verifier's
	// findings in Tuner.Optimize (core.Optimizer.OnViolation). The default,
	// nil, is strict.
	OnSchemeViolations func(workload string, vs []core.SchemeViolation) error
	// Engine, when set, adjusts each freshly built engine before any job
	// runs (speculation, failure injection).
	Engine func(*exec.Engine)
	// GridWidth bounds how many of Tuner.ProfileContext's test runs execute
	// at once; <= 1 runs them one at a time on the caller's goroutine. The
	// default is GOMAXPROCS: the runs are independent, they overlap only in
	// their jobs (the App's own code takes turns; see chopper.App), and the
	// harvest into the DB goes in grid order whatever order they finish in,
	// so every width records the same bits.
	GridWidth int
}

// Defaults returns the vanilla configuration: a fresh paper cluster, the
// calibrated cost parameters, spark.default.parallelism of
// core.DefaultParallelism and a profiling grid as wide as GOMAXPROCS.
func Defaults() Config {
	return Config{
		Topo:        cluster.PaperCluster(),
		Params:      cluster.DefaultCostParams(),
		Parallelism: core.DefaultParallelism,
		GridWidth:   runtime.GOMAXPROCS(0),
	}
}
