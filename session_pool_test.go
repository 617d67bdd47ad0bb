package chopper_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

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
