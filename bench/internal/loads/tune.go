package loads

import (
	"fmt"

	"chopper"
	"chopper/bench/internal/harness"
	"chopper/bench/internal/span"
	"chopper/internal/core"
	"chopper/internal/workloads"
)

// TunePlan is the tune-sweep profiling grid: tiny data, partition counts
// from 150 up to 900 on both sides of every shuffle.
var TunePlan = chopper.TrialPlan{SizeFractions: []float64{0.5, 1}, Partitions: []int{150, 600}, Range: false}

// TuneShrink is the physical shrink factor of the tune-sweep application.
const TuneShrink = 12

// TuneSweep is the paper's offline pipeline as a user runs it: profile,
// fit, optimise, then the vanilla-versus-tuned pair, on a fresh database
// each round.
type TuneSweep struct {
	w workloads.Workload
}

// NewTuneSweep returns the tune-sweep workload.
func NewTuneSweep() *TuneSweep { return &TuneSweep{} }

// Name implements harness.Workload.
func (t *TuneSweep) Name() string { return "tune-sweep" }

// TailQ implements harness.Workload; batch rounds record no latency sample.
func (t *TuneSweep) TailQ() float64 { return 0.5 }

// Fixture implements harness.Workload.
func (t *TuneSweep) Fixture(seed int64, _ string) error {
	w, err := Scaled("sql", 1, TuneShrink, seed)
	t.w = w
	return err
}

// Setup implements harness.Workload.
func (t *TuneSweep) Setup() (harness.Instance, error) { return &tuneInst{w: t.w}, nil }

type tuneInst struct{ w workloads.Workload }

// Round implements harness.Instance.
func (t *tuneInst) Round(ops *harness.Ops, tr *span.Recorder, parent int) error {
	id := tr.Start("tuner.run_comparison", parent, 0)
	app := &App{W: t.w}
	tn := &chopper.Tuner{DB: core.NewDB(), Plan: TunePlan}
	vanilla, tuned, _, err := tn.RunComparison(app)
	tr.End(id)
	if err != nil {
		return fmt.Errorf("loads: tune-sweep: %w", err)
	}
	// RunComparison's last two runs are the vanilla and the tuned one.
	n := len(app.Sums)
	ops.Check(n >= 2 && SameSum(app.Sums[n-2], app.Sums[n-1]))
	ops.Check(tuned <= vanilla*1.01)
	return nil
}

// Close implements harness.Instance.
func (t *tuneInst) Close(*harness.Ops) error { return nil }
