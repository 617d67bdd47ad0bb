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
// given logical input size. The Tuner's profiling grid runs its test runs
// side by side (GOMAXPROCS of them by default), each on a session of its
// own, but lets them overlap only inside the engine: Run's own code holds the grid's turn,
// and each action hands it back for the length of its job. So Run needs
// no lock for state it shares across calls, though another run's code may
// execute between two of its actions; the closures it hands the engine
// already run on several goroutines at once.
//
// Profile calls Run once per trial of its grid: trial 0, the default
// configuration at the target size, then one per size fraction, scheme and
// partition count of the TrialPlan. RunComparison calls it len(grid)+1
// times: its vanilla run is grid trial 0, not run again, and its tuned run
// comes after the grid, alone.
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
// a valid observation on its own. The trials run side by side, GridWidth
// at a time (GOMAXPROCS by default), overlapping only in their jobs (see
// App), and the DB records the same bits as a one-at-a-time grid.
func (t *Tuner) ProfileContext(ctx context.Context, app App) error {
	_, err := t.profile(ctx, app, false)
	return err
}

// profile runs the trial plan for app into the DB (see ProfileContext).
// Trial 0 is the default configuration at the target size, the cost
// reference; with keepDefault its session is returned, back on its own
// scheduler and with its engine released (Engine.Release). Every other run
// keeps nothing past its harvest.
func (t *Tuner) profile(ctx context.Context, app App, keepDefault bool) (*Session, error) {
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
	var mu, turn sync.Mutex
	runs := make([]observed, len(trials))
	next := 0
	kept, err := driver.MapWith(configure(t.SessionOptions).GridWidth, len(trials), func(i int) (*Session, error) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("chopper: profile of %s canceled: %w", app.Name(), err)
		}
		sess := NewSession(t.SessionOptions...)
		sess.sch.Configurator = trials[i].cfg
		sess.ctx.SetRunner(&offTurn{jobs: sess.sch, turn: &turn})
		turn.Lock()
		err := app.Run(sess, trials[i].bytes)
		turn.Unlock()
		if err != nil {
			return nil, fmt.Errorf("chopper: profile run of %s: %w", app.Name(), err)
		}
		var keep *Session
		if i == 0 && keepDefault {
			// A later job must not hand back a turn it does not hold, and
			// the rest of the grid need not carry what only such a job reads.
			sess.ctx.SetRunner(sess.sch)
			sess.eng.Release()
			keep = sess
		}
		mu.Lock()
		defer mu.Unlock()
		runs[i] = observed{sess.rec, sess.col}
		for ; next < len(runs) && runs[next].rec != nil; next++ {
			runs[next].rec.Harvest(t.DB, app.Name(), float64(trials[next].bytes), runs[next].col, next == 0)
			runs[next] = observed{}
		}
		return keep, nil
	})
	if err != nil {
		return nil, err
	}
	return kept[0], nil
}

// offTurn is a profiling run's job runner: it hands the grid's turn back
// for the length of each job, so the runs overlap in the engine while the
// App's own code runs one grid run at a time. Jobs submitted concurrently
// on one session share one release.
type offTurn struct {
	jobs     rdd.JobRunner
	turn     *sync.Mutex
	mu       sync.Mutex
	inFlight int
}

// RunJob implements rdd.JobRunner.
func (o *offTurn) RunJob(target *rdd.RDD, fn func(split int, rows []rdd.Row) (any, error)) ([]any, error) {
	o.mu.Lock()
	if o.inFlight++; o.inFlight == 1 {
		o.turn.Unlock()
	}
	o.mu.Unlock()
	defer func() {
		o.mu.Lock()
		if o.inFlight--; o.inFlight == 0 {
			o.turn.Lock()
		}
		o.mu.Unlock()
	}()
	return o.jobs.RunJob(target, fn)
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

// Comparison is a vanilla-versus-tuned pair of runs of one App at its
// target size — the Fig. 7 experiment for a user application.
type Comparison struct {
	// Vanilla is the profiling grid's trial 0: the default configuration at
	// the target size, the run the tuned one is measured against. Its
	// engine's cached partitions and shuffle outputs are released, so a
	// later job on it recomputes them from lineage.
	Vanilla *Session
	// Tuned ran the App with WithTuning(Config) after the grid.
	Tuned *Session
	// Config is the configuration Optimize generated from the grid.
	Config *ConfigFile
}

// Compare trains CHOPPER for app and runs it tuned. It calls app.Run
// len(grid)+1 times: the vanilla run is not run again but taken from the
// grid, whose trial 0 it is.
func (t *Tuner) Compare(app App) (Comparison, error) {
	vanilla, err := t.profile(context.Background(), app, true)
	if err != nil {
		return Comparison{}, err
	}
	cf, err := t.Optimize(app)
	if err != nil {
		return Comparison{}, err
	}
	tuned := NewSession(append(append([]Option{}, t.SessionOptions...), WithTuning(cf))...)
	if err := app.Run(tuned, app.InputBytes()); err != nil {
		return Comparison{}, err
	}
	return Comparison{Vanilla: vanilla, Tuned: tuned, Config: cf}, nil
}

// RunComparison is Compare reporting both simulated times.
func (t *Tuner) RunComparison(app App) (vanillaSec, tunedSec float64, cf *ConfigFile, err error) {
	c, err := t.Compare(app)
	if err != nil {
		return 0, 0, nil, err
	}
	return c.Vanilla.Elapsed(), c.Tuned.Elapsed(), c.Config, nil
}
