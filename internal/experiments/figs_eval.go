package experiments

import (
	"fmt"
	"math"

	"chopper"
	"chopper/internal/experiments/driver"
	"chopper/internal/metrics"
	"chopper/internal/workloads"
)

// Evaluation holds the trained-and-compared runs of all three workloads —
// the shared substrate of Figs. 7-14 and Tables II-III.
type Evaluation struct {
	Quick   bool
	KMeans  Compared
	PCA     Compared
	SQL     Compared
	Results []Compared // same three, iterable
}

// evalWorkloads returns the three paper workloads, shrunk when quick.
func evalWorkloads(quick bool) (*workloads.KMeans, *workloads.PCA, *workloads.SQL) {
	k := workloads.NewKMeans()
	p := workloads.NewPCA()
	s := workloads.NewSQL()
	if quick {
		k.Rows = 4000
		p.Rows = 3000
		s.Orders = 6000
		s.Customers = 400
	}
	return k, p, s
}

// evalPlan returns the profiling plan (smaller grid when quick).
func evalPlan(quick bool) chopper.TrialPlan {
	if quick {
		return chopper.TrialPlan{SizeFractions: []float64{0.5, 1.0}, Partitions: []int{150, 300, 450, 600}, Range: true}
	}
	return chopper.DefaultTrialPlan()
}

// RunEvaluation trains CHOPPER per workload and executes the Table I-sized
// vanilla and CHOPPER runs. The three workload pipelines are independent and
// run concurrently on the driver pool.
func RunEvaluation(quick bool) (*Evaluation, error) {
	k, p, s := evalWorkloads(quick)
	ev := &Evaluation{Quick: quick}

	jobs := []workloads.Workload{k, p, s}
	results, err := driver.Map(len(jobs), func(i int) (Compared, error) {
		return compare(jobs[i], jobs[i].DefaultInputBytes(), quick)
	})
	if err != nil {
		return nil, err
	}
	ev.KMeans, ev.PCA, ev.SQL = results[0], results[1], results[2]
	ev.Results = []Compared{ev.PCA, ev.KMeans, ev.SQL}
	return ev, nil
}

// TableI renders the workload input sizes.
func TableI() Table {
	t := Table{
		Title:  "Table I — workloads and input data sizes",
		Header: []string{"workload", "input size (GB)"},
	}
	for _, w := range workloads.All() {
		t.Rows = append(t.Rows, []string{w.Name(), f1(float64(w.DefaultInputBytes()) / 1e9)})
	}
	return t
}

// Fig7 renders total execution time of Spark vs CHOPPER per workload.
func (ev *Evaluation) Fig7() Table {
	t := Table{
		Title:  "Fig. 7 — total execution time, Spark vs CHOPPER (min)",
		Header: []string{"workload", "spark", "chopper", "improvement"},
	}
	for _, c := range ev.Results {
		t.Rows = append(t.Rows, []string{
			c.Workload,
			f2(elapsed(c.Spark) / 60),
			f2(elapsed(c.Chopper) / 60),
			fpct(c.Improvement()),
		})
	}
	return t
}

// Fig8 renders the KMeans per-stage time breakdown (stages 1-19; stage 0 is
// Table II).
func (ev *Evaluation) Fig8() Table {
	t := Table{
		Title:  "Fig. 8 — KMeans execution time per stage (s)",
		Header: []string{"stage", "chopper", "spark"},
	}
	n := len(ev.KMeans.Spark.Metrics().Stages())
	for id := 1; id < n; id++ {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", id),
			f1(stageDur(ev.KMeans.Chopper.Metrics(), id)),
			f1(stageDur(ev.KMeans.Spark.Metrics(), id)),
		})
	}
	return t
}

// TableII renders the KMeans stage-0 execution times.
func (ev *Evaluation) TableII() Table {
	return Table{
		Title:  "Table II — execution time for stage 0 in KMeans (s)",
		Header: []string{"chopper", "spark"},
		Rows: [][]string{{
			f1(stageDur(ev.KMeans.Chopper.Metrics(), 0)),
			f1(stageDur(ev.KMeans.Spark.Metrics(), 0)),
		}},
	}
}

// TableIII renders the partition counts per KMeans stage under both systems.
func (ev *Evaluation) TableIII() Table {
	t := Table{
		Title:  "Table III — repartitioning of KMeans stages",
		Header: []string{"stage", "chopper", "spark"},
	}
	spark := ev.KMeans.Spark.Metrics().Stages()
	for id := 0; id < len(spark); id++ {
		ch := ev.KMeans.Chopper.Metrics().StageByID(id)
		chTasks := ""
		if ch != nil {
			chTasks = fmt.Sprintf("%d", ch.NumTasks)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", id),
			chTasks,
			fmt.Sprintf("%d", spark[id].NumTasks),
		})
	}
	return t
}

// sqlPaperStages maps the engine's SQL stages onto the paper's stage ids
// 0-4: engine stages 0-3 map directly; the join job (engine stages 4+) is
// the paper's stage 4 with sub-stages.
type sqlStage struct {
	label    string
	duration float64
	shuffle  int64
}

func sqlPaperStages(col *metrics.Collector) []sqlStage {
	stages := col.Stages()
	var out []sqlStage
	for id := 0; id < 4 && id < len(stages); id++ {
		out = append(out, sqlStage{
			label:    fmt.Sprintf("%d", id),
			duration: stages[id].Duration(),
			shuffle:  stages[id].MaxShuffle(),
		})
	}
	if len(stages) > 4 {
		start, end := math.Inf(1), 0.0
		var shuffle int64
		for _, st := range stages[4:] {
			if st.Start < start {
				start = st.Start
			}
			if st.End > end {
				end = st.End
			}
			if st.ShuffleWrite > shuffle {
				shuffle = st.ShuffleWrite
			}
			if st.ShuffleRead > shuffle {
				shuffle = st.ShuffleRead
			}
		}
		out = append(out, sqlStage{label: "4", duration: end - start, shuffle: shuffle})
	}
	return out
}

// Fig9 renders SQL shuffle data per stage (paper stages 0-3; stage 4's
// volume is equal by construction and reported by Fig10's commentary).
func (ev *Evaluation) Fig9() Table {
	t := Table{
		Title:  "Fig. 9 — SQL shuffle data per stage (KB)",
		Header: []string{"stage", "chopper", "spark"},
	}
	ch := sqlPaperStages(ev.SQL.Chopper.Metrics())
	sp := sqlPaperStages(ev.SQL.Spark.Metrics())
	for i := 0; i < 4 && i < len(ch) && i < len(sp); i++ {
		t.Rows = append(t.Rows, []string{ch[i].label, kb(ch[i].shuffle), kb(sp[i].shuffle)})
	}
	return t
}

// Fig10 renders SQL execution time per paper stage, including the join job
// as stage 4.
func (ev *Evaluation) Fig10() Table {
	t := Table{
		Title:  "Fig. 10 — SQL execution time per stage (s)",
		Header: []string{"stage", "chopper", "spark"},
	}
	ch := sqlPaperStages(ev.SQL.Chopper.Metrics())
	sp := sqlPaperStages(ev.SQL.Spark.Metrics())
	for i := 0; i < len(ch) && i < len(sp); i++ {
		t.Rows = append(t.Rows, []string{ch[i].label, f1(ch[i].duration), f1(sp[i].duration)})
	}
	return t
}

// utilStep is the sampling window of the Figs. 11-14 timelines (the paper
// samples every ~20 s).
const utilStep = 20.0

// memBaseFraction approximates the executor/OS resident footprint.
const memBaseFraction = 0.25

func (ev *Evaluation) seriesSet(title string, get func(s *chopper.Session) metrics.Series) SeriesSet {
	out := SeriesSet{Title: title, Step: utilStep}
	for _, c := range ev.Results {
		for _, side := range []struct {
			label string
			sess  *chopper.Session
		}{{"Spark", c.Spark}, {"CHOPPER", c.Chopper}} {
			out.Labels = append(out.Labels, c.Workload+"-"+side.label)
			out.Series = append(out.Series, get(side.sess))
		}
	}
	return out
}

// Fig11 renders the CPU utilization timelines.
func (ev *Evaluation) Fig11() SeriesSet {
	return ev.seriesSet("Fig. 11 — CPU utilization (%)", func(s *chopper.Session) metrics.Series {
		return s.Metrics().CPUSeries(s.Topology(), utilStep)
	})
}

// Fig12 renders the memory utilization timelines.
func (ev *Evaluation) Fig12() SeriesSet {
	return ev.seriesSet("Fig. 12 — memory utilization (%)", func(s *chopper.Session) metrics.Series {
		return s.Metrics().MemSeries(s.Topology(), utilStep, memBaseFraction)
	})
}

// Fig13 renders total transmitted+received packets per second.
func (ev *Evaluation) Fig13() SeriesSet {
	return ev.seriesSet("Fig. 13 — total packets per second", func(s *chopper.Session) metrics.Series {
		return s.Metrics().NetSeries(utilStep)
	})
}

// Fig14 renders disk transactions per second.
func (ev *Evaluation) Fig14() SeriesSet {
	return ev.seriesSet("Fig. 14 — disk transactions per second", func(s *chopper.Session) metrics.Series {
		return s.Metrics().DiskSeries(utilStep)
	})
}

// Fig6 renders the generated configuration file of a trained workload
// (paper Fig. 6's example).
func (ev *Evaluation) Fig6() string {
	var b []byte
	buf := &byteWriter{buf: b}
	_ = ev.KMeans.Config.Write(buf)
	return string(buf.buf)
}

type byteWriter struct{ buf []byte }

// Write implements io.Writer.
func (w *byteWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}
