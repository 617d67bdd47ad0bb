package experiments

import (
	"fmt"

	"chopper"
	"chopper/internal/config"
	"chopper/internal/core"
	"chopper/internal/exec"
	"chopper/internal/experiments/driver"
	"chopper/internal/session"
	"chopper/internal/workloads"
)

// The harness runs CHOPPER's offline pipeline through the public Session and
// Tuner; the options below are the internal ones it adds.

// gridWidth runs a Tuner's profiling grid on the driver pool's width (the
// -parallel flag of cmd/experiments).
func gridWidth(c *session.Config) { c.GridWidth = driver.Parallelism() }

// engine adjusts every session's engine before it runs (speculation,
// failure injection).
func engine(fn func(*exec.Engine)) chopper.Option {
	return func(c *session.Config) { c.Engine = fn }
}

// app adapts a workload to chopper.App at a fixed logical input size. It
// keeps nothing of its runs: Tuner.Compare hands back the vanilla session
// (the profiling grid's trial 0) and the tuned one.
type app struct {
	w     workloads.Workload
	bytes int64
}

func (a *app) Name() string      { return a.w.Name() }
func (a *app) InputBytes() int64 { return a.bytes }

func (a *app) Run(sess *chopper.Session, bytes int64) error {
	if _, err := a.w.Run(sess.Context(), bytes); err != nil {
		return fmt.Errorf("experiments: %s run: %w", a.w.Name(), err)
	}
	return nil
}

// newTuner returns a tuner over a fresh DB with the evaluation's profiling
// plan, its grid on the driver pool.
func newTuner(quick bool, opts ...chopper.Option) *chopper.Tuner {
	return &chopper.Tuner{
		DB:             core.NewDB(),
		Plan:           evalPlan(quick),
		SessionOptions: append([]chopper.Option{gridWidth}, opts...),
	}
}

// runSession executes w at bytes on a fresh session built from opts.
func runSession(w workloads.Workload, bytes int64, opts ...chopper.Option) (*chopper.Session, workloads.Result, error) {
	sess := chopper.NewSession(opts...)
	res, err := w.Run(sess.Context(), bytes)
	if err != nil {
		return nil, res, fmt.Errorf("experiments: %s run: %w", w.Name(), err)
	}
	return sess, res, nil
}

// elapsed reports a session's total simulated time.
func elapsed(s *chopper.Session) float64 { return s.Metrics().TotalTime() }

// Compared holds a vanilla-vs-CHOPPER pair of runs on one workload.
type Compared struct {
	Workload string
	Spark    *chopper.Session
	Chopper  *chopper.Session
	Config   *config.File // the trained configuration the Chopper run applied
	DB       *core.DB     // the profiling statistics it was trained on
}

// Improvement reports the relative execution-time gain of CHOPPER.
func (c Compared) Improvement() float64 {
	s, ch := elapsed(c.Spark), elapsed(c.Chopper)
	if s <= 0 {
		return 0
	}
	return (s - ch) / s * 100
}

// compare trains CHOPPER for w at bytes and runs both systems there
// (Tuner.Compare: the Spark run is the profiling grid's default run, the
// tuned run applies the generated configuration plus the co-partition-aware
// scheduler).
func compare(w workloads.Workload, bytes int64, quick bool, opts ...chopper.Option) (Compared, error) {
	tn := newTuner(quick, opts...)
	c, err := tn.Compare(&app{w: w, bytes: bytes})
	if err != nil {
		return Compared{}, err
	}
	return Compared{Workload: w.Name(), Spark: c.Vanilla, Chopper: c.Tuned, Config: c.Config, DB: tn.DB}, nil
}
