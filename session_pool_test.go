package chopper_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chopper"
	"chopper/internal/core"
	"chopper/internal/session"
)

// runOnce executes the quickstart-style pipeline and returns the simulated
// time and number of recorded stages.
func runOnce(t *testing.T, sess *chopper.Session) (float64, int) {
	t.Helper()
	data := sess.Generate("data", 0, 1<<26, func(split, total int) []chopper.Row {
		var rows []chopper.Row
		for i := split; i < 4000; i += total {
			rows = append(rows, chopper.Pair{K: i % 97, V: float64(i)})
		}
		return rows
	})
	sums := data.ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 0)
	if _, err := sums.Collect(); err != nil {
		t.Fatal(err)
	}
	return sess.Elapsed(), len(sess.Stages())
}

// TestSessionResetMatchesFresh pins the reuse contract: a Reset session
// behaves exactly like a brand-new one.
func TestSessionResetMatchesFresh(t *testing.T) {
	fresh := chopper.NewSession()
	wantT, wantStages := runOnce(t, fresh)

	reused := chopper.NewSession()
	if tm, _ := runOnce(t, reused); tm != wantT {
		t.Fatalf("first run time %v != fresh %v", tm, wantT)
	}
	reused.Reset()
	if reused.Elapsed() != 0 || len(reused.Stages()) != 0 {
		t.Fatalf("Reset left state: elapsed=%v stages=%d", reused.Elapsed(), len(reused.Stages()))
	}
	gotT, gotStages := runOnce(t, reused)
	if gotT != wantT || gotStages != wantStages {
		t.Fatalf("reset run (%v, %d stages) != fresh run (%v, %d stages)", gotT, gotStages, wantT, wantStages)
	}
}

// TestSessionPoolReuse pins that pooled sessions are recycled and isolated
// across Acquire/Release cycles, including per-acquire extra options.
func TestSessionPoolReuse(t *testing.T) {
	pool := chopper.NewSessionPool()
	s1 := pool.Acquire()
	t1, stages := runOnce(t, s1)
	pool.Release(s1)

	s2 := pool.Acquire()
	if s2 != s1 {
		t.Fatal("pool did not recycle the released session")
	}
	if s2.Elapsed() != 0 || len(s2.Stages()) != 0 {
		t.Fatal("recycled session not reset")
	}
	t2, stages2 := runOnce(t, s2)
	if t2 != t1 || stages2 != stages {
		t.Fatalf("recycled run (%v, %d) != first run (%v, %d)", t2, stages2, t1, stages)
	}
	pool.Release(s2)

	// Extra options apply per acquire and wash out on the next one.
	s3 := pool.Acquire(chopper.WithDefaultParallelism(64))
	if got := s3.Context().DefaultParallelism; got != 64 {
		t.Fatalf("extra option not applied: parallelism %d", got)
	}
	pool.Release(s3)
	s4 := pool.Acquire()
	if got := s4.Context().DefaultParallelism; got != 300 {
		t.Fatalf("extra option leaked across acquires: parallelism %d", got)
	}
	pool.Release(s4)
}

// TestProfileContextCancel pins that a canceled context stops the trial
// grid with an error.
func TestProfileContextCancel(t *testing.T) {
	app, err := chopper.Builtin("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	app.Shrink(50)
	tuner := chopper.NewTuner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tuner.ProfileContext(ctx, app); err == nil {
		t.Fatal("ProfileContext with canceled context succeeded")
	}
	if tuner.DB.SampleCount("kmeans") != 0 {
		t.Fatal("canceled profile still recorded runs")
	}
}

// TestProfileContextCancelKeepsGridPrefix cancels a four-wide profiling grid
// part way through: the runs in flight finish, the rest are skipped, and the
// DB must hold exactly a grid-order prefix of the full grid's harvests, bit
// for bit the ones a sequential, uncanceled grid records.
func TestProfileContextCancelKeepsGridPrefix(t *testing.T) {
	harvests := func(ctx context.Context, width int, onRun func(n int64)) ([]string, error) {
		var runs atomic.Int64
		app := chopper.AppFunc{AppName: "prefix", Bytes: 1 << 26, Fn: func(sess *chopper.Session, bytes int64) error {
			onRun(runs.Add(1))
			data := sess.Generate("data", 0, bytes, func(split, total int) []chopper.Row {
				var rows []chopper.Row
				for i := split; i < 4000; i += total {
					rows = append(rows, chopper.Pair{K: i % 97, V: float64(i)})
				}
				return rows
			})
			_, err := data.ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 0).Collect()
			return err
		}}
		tuner := chopper.NewTuner(func(c *session.Config) { c.GridWidth = width })
		var got []string
		tuner.DB.SetObserver(func(_ string, in float64, obs []core.StageObservation) {
			got = append(got, fmt.Sprint(in, obs))
		})
		err := tuner.ProfileContext(ctx, app)
		return got, err
	}
	full, err := harvests(context.Background(), 1, func(int64) {})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := harvests(ctx, 4, func(n int64) {
		if n == 6 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled grid returned %v, want context.Canceled", err)
	}
	if len(got) < 6 || len(got) >= len(full) {
		t.Fatalf("canceled grid harvested %d of %d runs, want at least the 6 started before the cancel and not all", len(got), len(full))
	}
	for i := range got {
		if got[i] != full[i] {
			t.Fatalf("harvest %d is not grid run %d:\n got  %s\n want %s", i, i, got[i], full[i])
		}
	}
}

// TestRunComparisonGridWidthInvariant runs Tuner.RunComparison on tiny SQL
// over the tune-sweep benchmark's grid with the trials one at a time, side
// by side at the default width, and four wide: the configuration file's
// bytes, both simulated times and every harvest the DB observer sees are
// identical.
func TestRunComparisonGridWidthInvariant(t *testing.T) {
	type outcome struct {
		vanilla, tuned float64
		config         string
		harvests       []string
	}
	run := func(opts ...chopper.Option) outcome {
		app, err := chopper.Builtin("sql")
		if err != nil {
			t.Fatal(err)
		}
		app.Shrink(12)
		tuner := chopper.NewTuner(opts...)
		tuner.Plan = chopper.TrialPlan{SizeFractions: []float64{0.5, 1}, Partitions: []int{150, 600}}
		var o outcome
		tuner.DB.SetObserver(func(_ string, in float64, obs []core.StageObservation) {
			o.harvests = append(o.harvests, fmt.Sprint(in, obs))
		})
		vanilla, tuned, cf, err := tuner.RunComparison(app)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := cf.Write(&b); err != nil {
			t.Fatal(err)
		}
		o.vanilla, o.tuned, o.config = vanilla, tuned, b.String()
		return o
	}
	width := func(n int) chopper.Option { return func(c *session.Config) { c.GridWidth = n } }
	want := run(width(1))
	if len(want.harvests) != 5 { // the default run and 2 sizes x 2 partition counts
		t.Fatalf("one at a time harvested %d runs, want 5", len(want.harvests))
	}
	for _, c := range []struct {
		name string
		got  outcome
	}{{"the default width", run()}, {"width 4", run(width(4))}} {
		got := c.got
		if math.Float64bits(got.vanilla) != math.Float64bits(want.vanilla) || math.Float64bits(got.tuned) != math.Float64bits(want.tuned) {
			t.Errorf("%s: vanilla %v s, tuned %v s; one at a time %v s, %v s", c.name, got.vanilla, got.tuned, want.vanilla, want.tuned)
		}
		if got.config != want.config {
			t.Errorf("%s: configuration\n%s\none at a time\n%s", c.name, got.config, want.config)
		}
		if !slices.Equal(got.harvests, want.harvests) {
			t.Errorf("%s: %d harvests differ from the %d of one at a time", c.name, len(got.harvests), len(want.harvests))
		}
	}
}

// TestRunComparisonReusesDefaultTrial runs Tuner.RunComparison and
// Tuner.Compare on tiny SQL over the tune-sweep benchmark's grid. App.Run
// runs once per grid trial and once for the tuned run, not again for the
// vanilla one; the vanilla time and every vanilla stage equal a fresh
// session's run at the target size; and the vanilla session runs another
// job on its own scheduler (one still on the grid's would hand back a turn
// nothing holds, and the unlock of an unlocked mutex aborts the binary).
func TestRunComparisonReusesDefaultTrial(t *testing.T) {
	plan := chopper.TrialPlan{SizeFractions: []float64{0.5, 1}, Partitions: []int{150, 600}}
	grid := 1 + len(plan.SizeFractions)*len(plan.Partitions)
	sql := func() *chopper.BuiltinApp {
		app, err := chopper.Builtin("sql")
		if err != nil {
			t.Fatal(err)
		}
		app.Shrink(12)
		return app
	}
	fresh, ref := chopper.NewSession(), sql()
	if err := ref.Run(fresh, ref.InputBytes()); err != nil {
		t.Fatal(err)
	}
	inner := sql()
	var runs atomic.Int64
	app := chopper.AppFunc{AppName: inner.Name(), Bytes: inner.InputBytes(), Fn: func(sess *chopper.Session, bytes int64) error {
		runs.Add(1)
		return inner.Run(sess, bytes)
	}}
	tuner := chopper.NewTuner()
	tuner.Plan = plan
	vanilla, _, _, err := tuner.RunComparison(app)
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Swap(0); n != int64(grid+1) {
		t.Errorf("RunComparison called App.Run %d times, want len(grid)+1 = %d", n, grid+1)
	}
	if math.Float64bits(vanilla) != math.Float64bits(fresh.Elapsed()) {
		t.Errorf("RunComparison's vanilla run took %v s, a fresh session %v s", vanilla, fresh.Elapsed())
	}
	tuner = chopper.NewTuner()
	tuner.Plan = plan
	c, err := tuner.Compare(app)
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != int64(grid+1) {
		t.Errorf("Compare called App.Run %d times, want len(grid)+1 = %d", n, grid+1)
	}
	got, want := c.Vanilla.Stages(), fresh.Stages()
	if len(got) != len(want) {
		t.Fatalf("Compare's vanilla run has %d stages, a fresh session %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(*got[i], *want[i]) {
			t.Errorf("stage %d (%s) of Compare's vanilla run differs from a fresh session's", i, want[i].Name)
		}
	}
	end := c.Vanilla.Elapsed()
	if err := ref.Run(c.Vanilla, ref.InputBytes()); err != nil {
		t.Fatalf("another job on the vanilla session: %v", err)
	}
	if c.Vanilla.Elapsed() <= end {
		t.Errorf("another job on the vanilla session left its clock at %v s", c.Vanilla.Elapsed())
	}
}

// TestProfileRunsOverlapOnlyInJobs profiles an App two runs wide. Its own
// code, before, between and after its two actions, must never run in two
// runs at once, and the two runs' jobs must overlap: a job waits (5 s at
// most in all) until another run's job is in flight too, which can only
// happen if the first one handed back the turn.
func TestProfileRunsOverlapOnlyInJobs(t *testing.T) {
	var inApp, inJobs, peakJobs atomic.Int32
	var appOverlap atomic.Bool
	appCode := func() {
		if inApp.Add(1) != 1 {
			appOverlap.Store(true)
		}
		time.Sleep(time.Millisecond)
		inApp.Add(-1)
	}
	deadline := time.Now().Add(5 * time.Second)
	app := chopper.AppFunc{AppName: "turns", Bytes: 1 << 20, Fn: func(sess *chopper.Session, _ int64) error {
		for range 2 {
			appCode()
			one := sess.Parallelize([]chopper.Row{1}, 1).Map(func(r chopper.Row) chopper.Row {
				n := inJobs.Add(1)
				defer inJobs.Add(-1)
				for p := peakJobs.Load(); n > p && !peakJobs.CompareAndSwap(p, n); p = peakJobs.Load() {
				}
				for peakJobs.Load() < 2 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				return r
			})
			if _, err := one.Count(); err != nil {
				return err
			}
		}
		appCode()
		return nil
	}}
	tuner := chopper.NewTuner(func(c *session.Config) { c.GridWidth = 2 })
	tuner.Plan = chopper.TrialPlan{SizeFractions: []float64{0.5, 1}, Partitions: []int{4}}
	if err := tuner.Profile(app); err != nil {
		t.Fatal(err)
	}
	if appOverlap.Load() {
		t.Error("two profiling runs executed App code at once")
	}
	if p := peakJobs.Load(); p < 2 {
		t.Errorf("at most %d profiling job in flight at once, want the two runs' jobs side by side", p)
	}
}
