package chopper

import (
	"context"
	"fmt"
	"sync"

	"chopper/internal/core"
	"chopper/internal/dag"
	"chopper/internal/experiments/driver"
	"chopper/internal/metrics"
	"chopper/internal/rdd"
)

// App is an application the Tuner can profile and optimize: it must build
// and execute its pipeline on the given session, deterministically, at the
// given logical input size. A Tuner built from the public options calls Run
// one run at a time, never concurrently.
type App interface {
	// Name keys the workload in the statistics database.
	Name() string
	// InputBytes is the target logical input size.
	InputBytes() int64
	// Run builds the pipeline on sess and executes its actions.
	Run(sess *Session, inputBytes int64) error
}

// AppFunc adapts a closure into an App.
type AppFunc struct {
	AppName string
	Bytes   int64
	Fn      func(sess *Session, inputBytes int64) error
}

// Name implements App.
func (a AppFunc) Name() string { return a.AppName }

// InputBytes implements App.
func (a AppFunc) InputBytes() int64 { return a.Bytes }

// Run implements App.
func (a AppFunc) Run(sess *Session, inputBytes int64) error { return a.Fn(sess, inputBytes) }

// TrialPlan describes the tuner's lightweight test runs: the grid of input
// sizes (fractions of the target), partition counts, and partitioner
// schemes (paper Section III-B).
type TrialPlan struct {
	SizeFractions []float64
	Partitions    []int
	Range         bool // also sweep the range partitioner
}

// DefaultTrialPlan returns the standard profiling grid.
func DefaultTrialPlan() TrialPlan {
	return TrialPlan{
		SizeFractions: []float64{0.4, 0.7, 1.0},
		Partitions:    []int{150, 300, 450, 600, 900},
		Range:         true,
	}
}

// Tuner is the offline CHOPPER pipeline: profile, fit, optimize, emit.
type Tuner struct {
	// DB accumulates observations; reuse it across Train calls to keep
	// history (the paper's workload database).
	DB *WorkloadDB
	// Plan is the profiling grid.
	Plan TrialPlan
	// SessionOptions configure the profiling sessions (cluster, parallelism).
	SessionOptions []Option
}

// NewTuner returns a tuner with an empty database and the default plan.
func NewTuner(opts ...Option) *Tuner {
	return &Tuner{DB: core.NewDB(), Plan: DefaultTrialPlan(), SessionOptions: opts}
}

// Profile executes the trial plan for app, accumulating statistics.
func (t *Tuner) Profile(app App) error {
	return t.ProfileContext(context.Background(), app)
}

// ProfileContext is Profile with cancellation: the context is checked
// before each trial run, so a canceled training request (chopperd's
// per-request deadline) stops after the runs in flight instead of finishing
// the whole grid. The completed grid-order prefix stays in the DB — each is
// a valid observation on its own.
func (t *Tuner) ProfileContext(ctx context.Context, app App) error {
	type trial struct {
		bytes int64
		cfg   dag.StageConfigurator // nil: the default run, the cost reference
	}
	target := app.InputBytes()
	trials := []trial{{bytes: target}}
	schemes := []rdd.SchemeName{rdd.SchemeHash}
	if t.Plan.Range {
		schemes = append(schemes, rdd.SchemeRange)
	}
	for _, frac := range t.Plan.SizeFractions {
		for _, scheme := range schemes {
			for _, p := range t.Plan.Partitions {
				cfg := &core.ForceAll{Spec: dag.SchemeSpec{Scheme: scheme, NumPartitions: p}}
				trials = append(trials, trial{int64(frac * float64(target)), cfg})
			}
		}
	}
	// Harvesting into the DB is order-sensitive (float accumulation), so run
	// i is harvested once runs 0..i have all completed, whatever order they
	// finished in; a failed or skipped run ends the harvest there. Until its
	// harvest a run keeps only what the harvest reads, not its engine.
	type observed struct {
		rec *core.Recorder
		col *metrics.Collector
	}
	var mu sync.Mutex
	runs := make([]observed, len(trials))
	next := 0
	_, err := driver.MapWith(configure(t.SessionOptions).GridWidth, len(trials), func(i int) (struct{}, error) {
		if err := ctx.Err(); err != nil {
			return struct{}{}, fmt.Errorf("chopper: profile of %s canceled: %w", app.Name(), err)
		}
		sess := NewSession(t.SessionOptions...)
		sess.sch.Configurator = trials[i].cfg
		if err := app.Run(sess, trials[i].bytes); err != nil {
			return struct{}{}, fmt.Errorf("chopper: profile run of %s: %w", app.Name(), err)
		}
		mu.Lock()
		defer mu.Unlock()
		runs[i] = observed{sess.rec, sess.col}
		for ; next < len(runs) && runs[next].rec != nil; next++ {
			runs[next].rec.Harvest(t.DB, app.Name(), float64(trials[next].bytes), runs[next].col, next == 0)
			runs[next] = observed{}
		}
		return struct{}{}, nil
	})
	return err
}

// Optimize generates the workload configuration from the accumulated
// statistics using Algorithm 3 (global optimization).
func (t *Tuner) Optimize(app App) (*ConfigFile, error) {
	sc := configure(t.SessionOptions)
	o := core.NewOptimizer(t.DB)
	o.DefaultParallelism = sc.Parallelism
	o.OnViolation = sc.OnSchemeViolations
	return o.GenerateConfig(app.Name(), float64(app.InputBytes()))
}

// Train is Profile followed by Optimize — the full offline pipeline.
func (t *Tuner) Train(app App) (*ConfigFile, error) {
	if err := t.Profile(app); err != nil {
		return nil, err
	}
	return t.Optimize(app)
}

// Observe harvests a completed session's statistics into the tuner's
// database — the paper's "remembers the statistics from the user workload
// execution in a production environment", which lets later Optimize calls
// train on live runs in addition to the synthetic test runs.
func (t *Tuner) Observe(sess *Session, app App, inputBytes int64) {
	sess.harvest(t.DB, app.Name(), float64(inputBytes), false)
}

// RunComparison executes app under vanilla and tuned sessions and reports
// both simulated times — the Fig. 7 experiment for a user application.
func (t *Tuner) RunComparison(app App) (vanillaSec, tunedSec float64, cf *ConfigFile, err error) {
	cf, err = t.Train(app)
	if err != nil {
		return 0, 0, nil, err
	}
	vanilla := NewSession(t.SessionOptions...)
	if err := app.Run(vanilla, app.InputBytes()); err != nil {
		return 0, 0, nil, err
	}
	tunedOpts := append(append([]Option{}, t.SessionOptions...), WithTuning(cf))
	tuned := NewSession(tunedOpts...)
	if err := app.Run(tuned, app.InputBytes()); err != nil {
		return 0, 0, nil, err
	}
	return vanilla.Elapsed(), tuned.Elapsed(), cf, nil
}
