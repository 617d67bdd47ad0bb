package experiments

import (
	"fmt"

	"chopper"
	"chopper/internal/core"
	"chopper/internal/dag"
	"chopper/internal/experiments/driver"
	"chopper/internal/metrics"
	"chopper/internal/rdd"
	"chopper/internal/workloads"
)

// MotivationInputBytes is the KMeans input of the Section II-B study
// (7.3 GB).
const MotivationInputBytes = int64(7.3e9)

// MotivationPartitions is the swept grid of Figs. 2-4.
var MotivationPartitions = []int{100, 200, 300, 400, 500}

// quickKMeans shrinks the physical dataset for fast test runs; the logical
// input size (and therefore the cost model) is unchanged.
func quickKMeans(quick bool) *workloads.KMeans {
	k := workloads.NewKMeans()
	if quick {
		k.Rows = 4000
	}
	return k
}

// Motivation holds the per-partition-count runs behind Figs. 2-4.
type Motivation struct {
	Partitions []int
	Runs       []*chopper.Session // one per partition count, uniform hash partitioning
}

// RunMotivation executes the Section II-B study: KMeans at 7.3 GB with the
// partition count forced uniformly to each value of the grid.
func RunMotivation(quick bool, partitions []int) (*Motivation, error) {
	if len(partitions) == 0 {
		partitions = MotivationPartitions
	}
	m := &Motivation{Partitions: partitions}
	// The partition counts are independent runs on fresh stacks; the driver
	// pool executes them concurrently and returns them in grid order.
	runs, err := driver.Map(len(partitions), func(i int) (*chopper.Session, error) {
		sess, _, err := runSession(quickKMeans(quick), MotivationInputBytes, forceHash(partitions[i]))
		return sess, err
	})
	if err != nil {
		return nil, err
	}
	m.Runs = runs
	return m, nil
}

// Fig2 renders execution time per stage under different partition counts
// (paper Fig. 2: stages 1-19; stage 0 is shown separately in Fig. 3).
func (m *Motivation) Fig2() Table {
	t := Table{Title: "Fig. 2 — KMeans execution time per stage (s) vs partitions"}
	t.Header = []string{"stage"}
	for _, p := range m.Partitions {
		t.Header = append(t.Header, fmt.Sprintf("P=%d", p))
	}
	stages := m.Runs[0].Metrics().Stages()
	for id := 1; id < len(stages); id++ {
		row := []string{fmt.Sprintf("%d", id)}
		for _, sess := range m.Runs {
			row = append(row, f1(stageDur(sess.Metrics(), id)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig3 renders stage-0 execution time against the partition count.
func (m *Motivation) Fig3() Table {
	t := Table{
		Title:  "Fig. 3 — KMeans stage 0 execution time vs partitions",
		Header: []string{"partitions", "time(s)"},
	}
	for i, p := range m.Partitions {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p),
			f1(stageDur(m.Runs[i].Metrics(), 0)),
		})
	}
	return t
}

// Fig4 renders shuffle data per stage (stages 12-17, the only shuffling
// stages) under different partition counts, in KB.
func (m *Motivation) Fig4() Table {
	t := Table{Title: "Fig. 4 — KMeans shuffle data per stage (KB) vs partitions"}
	t.Header = []string{"stage"}
	for _, p := range m.Partitions {
		t.Header = append(t.Header, fmt.Sprintf("P=%d", p))
	}
	for id := 12; id <= 17; id++ {
		row := []string{fmt.Sprintf("%d", id)}
		for _, sess := range m.Runs {
			st := sess.Metrics().StageByID(id)
			if st == nil {
				row = append(row, "")
				continue
			}
			row = append(row, kb(st.MaxShuffle()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ExtremePartitions reproduces the paper's 2000-partition data point
// (Section II-B): versus the best swept configuration, a very large
// partition count costs both time and shuffle volume.
func (m *Motivation) ExtremePartitions(quick bool) (Table, error) {
	sess, _, err := runSession(quickKMeans(quick), MotivationInputBytes, forceHash(2000))
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Section II-B — the 2000-partition extreme (KMeans @ 7.3 GB)",
		Header: []string{"partitions", "total time (min)", "stage-17 shuffle (KB)"},
	}
	add := func(label string, s *chopper.Session) {
		sh := int64(0)
		if st := s.Metrics().StageByID(17); st != nil {
			sh = st.MaxShuffle()
		}
		t.Rows = append(t.Rows, []string{label, f2(elapsed(s) / 60), kb(sh)})
	}
	for i, p := range m.Partitions {
		add(fmt.Sprintf("%d", p), m.Runs[i])
	}
	add("2000", sess)
	return t, nil
}

// forceHash forces every stage to uniform hash partitioning over p.
func forceHash(p int) chopper.Option {
	return chopper.WithConfigurator(&core.ForceAll{Spec: dag.SchemeSpec{Scheme: rdd.SchemeHash, NumPartitions: p}})
}

func stageDur(col *metrics.Collector, id int) float64 {
	st := col.StageByID(id)
	if st == nil {
		return 0
	}
	return st.Duration()
}
