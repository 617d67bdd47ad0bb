package loads

import (
	"fmt"

	"chopper"
	"chopper/bench/internal/harness"
	"chopper/bench/internal/span"
	"chopper/internal/workloads"
)

// jobSpec is one engine job of a round: a built-in at mul/div times its
// default physical rows.
type jobSpec struct {
	name     string
	mul, div int
}

// Engine is a batch workload: each round runs its jobs once, each on a
// fresh vanilla session.
type Engine struct {
	name string
	jobs []jobSpec
	ws   []workloads.Workload
}

// NewEngineCompute is the map-side-compute workload: KMeans and PCA.
func NewEngineCompute() *Engine {
	return &Engine{name: "engine-compute", jobs: []jobSpec{{"kmeans", 2, 1}, {"pca", 2, 1}}}
}

// NewEngineShuffle is the shuffle-data-path workload: SQL and PageRank.
func NewEngineShuffle() *Engine {
	return &Engine{name: "engine-shuffle", jobs: []jobSpec{{"sql", 2, 1}, {"pagerank", 1, 1}}}
}

// Name implements harness.Workload.
func (e *Engine) Name() string { return e.name }

// TailQ implements harness.Workload; batch rounds record no latency sample.
func (e *Engine) TailQ() float64 { return 0.5 }

// Fixture implements harness.Workload.
func (e *Engine) Fixture(seed int64, _ string) error {
	e.ws = e.ws[:0]
	for _, j := range e.jobs {
		w, err := Scaled(j.name, j.mul, j.div, seed)
		if err != nil {
			return err
		}
		e.ws = append(e.ws, w)
	}
	return nil
}

// Jobs returns the round's jobs as Fixture built them.
func (e *Engine) Jobs() []workloads.Workload { return e.ws }

// refParallelism is the default parallelism of the set-up reference run.
// The timed rounds run at the vanilla 300; a workload's checksum must not
// depend on which.
const refParallelism = 120

// Setup implements harness.Workload: the reference checksums come from one
// run of each job at a different default parallelism.
func (e *Engine) Setup() (harness.Instance, error) {
	inst := &EngineInst{WS: e.ws, Want: make([]float64, len(e.ws))}
	for i, w := range e.ws {
		sess := chopper.NewSession(chopper.WithDefaultParallelism(refParallelism))
		res, err := w.Run(sess.Context(), w.DefaultInputBytes())
		if err != nil {
			return nil, fmt.Errorf("loads: %s reference run: %w", w.Name(), err)
		}
		inst.Want[i] = res.Checksum
	}
	return inst, nil
}

// EngineInst is a set-up Engine: the jobs and their reference checksums.
type EngineInst struct {
	WS   []workloads.Workload
	Want []float64
}

// Round implements harness.Instance.
func (e *EngineInst) Round(ops *harness.Ops, tr *span.Recorder, parent int) error {
	for i, w := range e.WS {
		id := tr.Start("job."+w.Name(), parent, 0)
		sess := chopper.NewSession()
		res, err := w.Run(sess.Context(), w.DefaultInputBytes())
		tr.End(id)
		if err != nil {
			return fmt.Errorf("loads: %s: %w", w.Name(), err)
		}
		ops.Check(SameSum(res.Checksum, e.Want[i]))
	}
	return nil
}

// Close implements harness.Instance.
func (e *EngineInst) Close(*harness.Ops) error { return nil }
