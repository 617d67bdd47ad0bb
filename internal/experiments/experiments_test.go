package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"chopper"
	"chopper/internal/metrics"
	"chopper/internal/rdd"
	"chopper/internal/workloads"
)

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tbl.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "333") {
		t.Fatalf("table rendering wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestSeriesSetTable(t *testing.T) {
	ss := SeriesSet{Title: "s", Step: 10, Labels: []string{"x"}}
	ss.Series = append(ss.Series, seriesOf(1, 2, 3))
	tbl := ss.Table()
	if len(tbl.Rows) != 3 || tbl.Rows[2][0] != "20" {
		t.Fatalf("series table wrong: %+v", tbl.Rows)
	}
}

func TestTableIMatchesPaper(t *testing.T) {
	tbl := TableI()
	if len(tbl.Rows) != 3 {
		t.Fatalf("Table I should have 3 workloads")
	}
	joined := tbl.String()
	for _, want := range []string{"21.8", "27.6", "34.5"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("Table I missing %s:\n%s", want, joined)
		}
	}
}

// TestProfilePlanRunCount pins the Tuner's default grid: one default run
// plus sizes x schemes x partition counts.
func TestProfilePlanRunCount(t *testing.T) {
	var runs atomic.Int64
	app := chopper.AppFunc{AppName: "count", Bytes: 1 << 20, Fn: func(sess *chopper.Session, _ int64) error {
		runs.Add(1)
		_, err := sess.Parallelize([]rdd.Row{rdd.Pair{K: 1, V: 1.0}}, 1).Count()
		return err
	}}
	if err := newTuner(false).Profile(app); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 1+3*5*2 {
		t.Fatalf("default plan run count = %d", n)
	}
}

func TestMotivationShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m, err := RunMotivation(true, []int{100, 300, 500})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3 shape: P=100 must be the worst stage-0 configuration.
	d100 := stageDur(m.Runs[0].Metrics(), 0)
	d300 := stageDur(m.Runs[1].Metrics(), 0)
	d500 := stageDur(m.Runs[2].Metrics(), 0)
	if d100 <= d300 || d100 <= d500 {
		t.Fatalf("stage 0 should be worst at P=100: %v %v %v", d100, d300, d500)
	}
	// Fig. 4 shape: total iteration shuffle volume grows with P.
	lo, hi := m.ShuffleGrowth()
	if hi <= lo {
		t.Fatalf("shuffle data should grow with partitions: %d vs %d", lo, hi)
	}
	// Tables render for all three figures.
	for _, tbl := range []Table{m.Fig2(), m.Fig3(), m.Fig4()} {
		if len(tbl.Rows) == 0 {
			t.Fatalf("empty table: %s", tbl.Title)
		}
	}
	if len(m.Fig2().Rows) != 19 {
		t.Fatalf("Fig. 2 covers stages 1-19, got %d rows", len(m.Fig2().Rows))
	}
	if len(m.Fig4().Rows) != 6 {
		t.Fatalf("Fig. 4 covers stages 12-17, got %d rows", len(m.Fig4().Rows))
	}
}

func TestEvaluationReproducesPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ev, err := RunEvaluation(true)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 7: CHOPPER wins on every workload.
	for _, c := range ev.Results {
		if c.Improvement() <= 0 {
			t.Fatalf("%s: CHOPPER should beat vanilla, improvement %.1f%%", c.Workload, c.Improvement())
		}
	}
	// Table II: stage 0 faster under CHOPPER.
	s0c := stageDur(ev.KMeans.Chopper.Metrics(), 0)
	s0s := stageDur(ev.KMeans.Spark.Metrics(), 0)
	if s0c >= s0s {
		t.Fatalf("Table II: chopper stage 0 (%.1f) should beat spark (%.1f)", s0c, s0s)
	}
	// Table III: spark fixed at 300 everywhere; chopper varies per stage
	// and keeps iterative stages consistent.
	spark := ev.KMeans.Spark.Metrics().Stages()
	for _, st := range spark {
		if st.NumTasks != 300 {
			t.Fatalf("vanilla should run 300 partitions everywhere, stage %d has %d", st.ID, st.NumTasks)
		}
	}
	ch := ev.KMeans.Chopper.Metrics().Stages()
	varied := false
	for _, st := range ch {
		if st.NumTasks != 300 {
			varied = true
		}
	}
	if !varied {
		t.Fatalf("chopper should deviate from the default parallelism")
	}
	if ch[13].NumTasks != ch[15].NumTasks || ch[13].NumTasks != ch[17].NumTasks {
		t.Fatalf("iterative reduce stages should share a partition count")
	}
	// Fig. 9: SQL shuffle volume per stage no worse under CHOPPER overall.
	chS := sqlPaperStages(ev.SQL.Chopper.Metrics())
	spS := sqlPaperStages(ev.SQL.Spark.Metrics())
	var chTot, spTot int64
	for i := 0; i < 4; i++ {
		chTot += chS[i].shuffle
		spTot += spS[i].shuffle
	}
	if chTot > spTot*11/10 {
		t.Fatalf("Fig. 9: chopper shuffle (%d) should not exceed spark (%d) by >10%%", chTot, spTot)
	}
	// Fig. 10: the join job (paper stage 4) is faster under CHOPPER.
	if chS[4].duration >= spS[4].duration {
		t.Fatalf("Fig. 10: chopper join stage (%.1f) should beat spark (%.1f)", chS[4].duration, spS[4].duration)
	}
	// Figs. 11-14 render non-empty series for all six runs.
	for _, ss := range []SeriesSet{ev.Fig11(), ev.Fig12(), ev.Fig13(), ev.Fig14()} {
		if len(ss.Series) != 6 {
			t.Fatalf("%s: want 6 series, got %d", ss.Title, len(ss.Series))
		}
		for i, s := range ss.Series {
			if len(s.Values) == 0 {
				t.Fatalf("%s: series %d empty", ss.Title, i)
			}
		}
	}
	// CPU utilization stays within [0, 100].
	for _, s := range ev.Fig11().Series {
		if s.Max() > 100+1e-9 {
			t.Fatalf("CPU series exceeds 100%%: %v", s.Max())
		}
	}
	// Fig. 6: the generated configuration renders and parses.
	if !strings.Contains(ev.Fig6(), "stage ") {
		t.Fatalf("Fig. 6 config missing stage entries:\n%s", ev.Fig6())
	}
	// Tables render.
	for _, tbl := range []Table{ev.Fig7(), ev.Fig8(), ev.TableII(), ev.TableIII(), ev.Fig9(), ev.Fig10()} {
		if len(tbl.Rows) == 0 {
			t.Fatalf("empty table: %s", tbl.Title)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := RunAblations(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 6 {
		t.Fatalf("want 6 ablation tables, got %d", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) == 0 {
			t.Fatalf("empty ablation: %s", tbl.Title)
		}
	}
	// The gamma ablation must show the gate: some gamma inserts, some not.
	gamma := tables[1]
	sawTrue, sawFalse := false, false
	for _, row := range gamma.Rows {
		if len(row) > 1 && row[1] == "true" {
			sawTrue = true
		}
		if len(row) > 1 && row[1] == "false" {
			sawFalse = true
		}
	}
	if !sawTrue || !sawFalse {
		t.Fatalf("gamma gate should flip across the sweep:\n%s", gamma)
	}
}

func TestRunWorkloadErrorPath(t *testing.T) {
	bad := badWorkload{}
	if _, _, err := runSession(bad, 100); err == nil {
		t.Fatalf("expected error from failing workload")
	}
	if err := newTuner(true).Profile(&app{w: bad, bytes: 100}); err == nil {
		t.Fatalf("expected error from profiling a failing workload")
	}
}

type badWorkload struct{}

func (badWorkload) Name() string             { return "bad" }
func (badWorkload) DefaultInputBytes() int64 { return 1 }
func (badWorkload) Run(_ *rdd.Context, _ int64) (workloads.Result, error) {
	return workloads.Result{}, errors.New("boom")
}

func seriesOf(vals ...float64) (s metrics.Series) {
	s.Step = 10
	s.Values = vals
	return
}

func TestExtremePartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m, err := RunMotivation(true, []int{200, 500})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := m.ExtremePartitions(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("want rows for 200, 500, 2000: %+v", tbl.Rows)
	}
	// The 2000-partition run must shuffle far more than the 200-partition
	// run (the paper reports ~10x at stage 17) and take longer overall.
	parse := func(s string) float64 {
		var v float64
		_, err := fmt.Sscanf(s, "%f", &v)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	t200, sh200 := parse(tbl.Rows[0][1]), parse(tbl.Rows[0][2])
	t2000, sh2000 := parse(tbl.Rows[2][1]), parse(tbl.Rows[2][2])
	if sh2000 < 4*sh200 {
		t.Fatalf("2000 partitions should shuffle much more: %v vs %v KB", sh2000, sh200)
	}
	if t2000 <= t200 {
		t.Fatalf("2000 partitions should be slower: %v vs %v min", t2000, t200)
	}
}
