package harness

import (
	"testing"
	"time"

	"chopper/bench/internal/span"
)

// fake is a workload whose round sleeps, records one timed op and one
// check, and fails the check when told to.
type fake struct {
	round   time.Duration
	failing bool
	setups  int
	closes  int
}

func (f *fake) Name() string                { return "fake" }
func (f *fake) TailQ() float64              { return 0.95 }
func (f *fake) Fixture(int64, string) error { return nil }
func (f *fake) Setup() (Instance, error)    { f.setups++; return f, nil }
func (f *fake) Close(*Ops) error            { f.closes++; return nil }
func (f *fake) Round(ops *Ops, tr *span.Recorder, parent int) error {
	id := tr.Start("op", parent, 0)
	time.Sleep(f.round)
	tr.End(id)
	ops.Op(f.round, true)
	ops.Check(!f.failing)
	return nil
}

func quick(t *testing.T) Config {
	cfg := DefaultConfig(1, 0.05, t.TempDir())
	cfg.MinRounds = 4
	return cfg
}

func TestRunReportsEveryEndToEndMetric(t *testing.T) {
	f := &fake{round: time.Millisecond}
	rep, err := Run(f, quick(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"setup_s", "round_ms", "round_cpu_ms", "op_p50_ms", "op_tail_ms", "alloc_mb_per_round", "mallocs_k_per_round"} {
		if _, ok := rep.EndToEnd[name]; !ok {
			t.Errorf("missing end-to-end metric %s", name)
		}
	}
	if len(rep.EndToEnd) != 7 {
		t.Errorf("got %d end-to-end metrics, want 7", len(rep.EndToEnd))
	}
	if f.setups != 3 || f.closes != 3 {
		t.Errorf("set-ups %d closes %d, want 3 and 3", f.setups, f.closes)
	}
	rounds := int(rep.Env["env.rounds"])
	if rounds < 4 || len(rep.Rounds) != rounds {
		t.Errorf("rounds = %d (records %d), want >= 4", rounds, len(rep.Rounds))
	}
	// 3 set-ups x 3 warm-up rounds, plus the timed rounds, two ops each.
	if want := 2 * (9 + rounds); rep.Attempted != want || rep.Failed != 0 {
		t.Errorf("attempted %d failed %d, want %d and 0", rep.Attempted, rep.Failed, want)
	}
	if got := rep.EndToEnd["op_p50_ms"]; got < 0.9 || got > 1.1 {
		t.Errorf("op_p50_ms = %v, want the 1 ms the ops recorded", got)
	}
	if got := rep.EndToEnd["round_ms"]; got < 1 {
		t.Errorf("round_ms = %v, want at least the 1 ms slept", got)
	}
}

func TestFailedChecksAreCounted(t *testing.T) {
	rep, err := Run(&fake{round: time.Millisecond, failing: true}, quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != rep.Attempted/2 || rep.Failed == 0 {
		t.Fatalf("failed %d of %d, want half", rep.Failed, rep.Attempted)
	}
}

func TestBoxExtendsUntilMinRounds(t *testing.T) {
	rep, err := Run(&fake{round: 30 * time.Millisecond}, quick(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Env["env.rounds"] != 4 {
		t.Errorf("rounds = %v, want exactly the 4 minimum", rep.Env["env.rounds"])
	}
	if rep.Env["env.box_extended_s"] <= 0 {
		t.Errorf("box_extended_s = %v, want > 0 for a 50 ms box of 30 ms rounds", rep.Env["env.box_extended_s"])
	}
}

func TestTracedRunRecordsSpansAndOverhead(t *testing.T) {
	cfg := quick(t)
	cfg.Tracer = span.New()
	f := &fake{round: time.Millisecond}
	rep, err := Run(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EndToEnd != nil {
		t.Error("traced run reported end-to-end metrics")
	}
	if f.setups != 1 {
		t.Errorf("traced run did %d set-ups, want 1", f.setups)
	}
	for _, name := range []string{"gc.cycles_per_round", "gc.pause_ms_per_round", "heap.inuse_mb", "peak_rss_mb"} {
		if _, ok := rep.Runtime[name]; !ok {
			t.Errorf("missing runtime metric %s", name)
		}
	}
	if _, ok := rep.Env["env.trace_overhead_pct"]; !ok {
		t.Error("missing env.trace_overhead_pct")
	}
	spans := cfg.Tracer.Spans()
	rounds, linked := 0, 0
	for _, s := range spans {
		if s.Name == "round" {
			rounds++
		}
		if s.Name == "op" && s.Parent > 0 && spans[s.Parent-1].Name == "round" {
			linked++
		}
	}
	if rounds == 0 || linked != rounds {
		t.Errorf("%d round spans, %d op spans linked to one", rounds, linked)
	}
}
