package experiments

import (
	"bytes"
	"testing"

	"chopper"
	"chopper/internal/experiments/driver"
)

// TestParallelMatchesSequential is the contract of the driver pool and of
// the Tuner's profiling grid: an experiment sweep executed with 8 workers
// must produce byte-identical observable output — per-run trace logs, the
// trained configuration and the rendered result tables — to the same sweep
// executed sequentially. Sequential (parallel=1) is the reference path:
// driver.MapWith degenerates to a plain loop there, so any divergence is
// parallelism leaking into a run's simulated timeline or into cross-run
// accumulation order.
func TestParallelMatchesSequential(t *testing.T) {
	type capture struct {
		traces [][]byte
		tables []string
	}
	sweep := func(parallel int) capture {
		driver.SetParallelism(parallel)
		defer driver.SetParallelism(0)

		var c capture
		// Motivation sweep: five independent runs whose traces land in grid
		// order.
		m, err := RunMotivation(true, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, sess := range m.Runs {
			var buf bytes.Buffer
			if err := sess.Trace(true).Write(&buf); err != nil {
				t.Fatal(err)
			}
			c.traces = append(c.traces, buf.Bytes())
		}
		c.tables = append(c.tables, m.Fig2().String(), m.Fig3().String(), m.Fig4().String())

		// Full train-and-compare pipeline through Tuner.RunComparison: the
		// profiling grid's runs execute at the pool's width while harvests
		// into the shared DB stay in grid order, so the trained configuration
		// and both measured runs must match.
		k := quickKMeans(true)
		cmp, err := compare(k, k.DefaultInputBytes(), true)
		if err != nil {
			t.Fatal(err)
		}
		for _, sess := range []*chopper.Session{cmp.Spark, cmp.Chopper} {
			var buf bytes.Buffer
			if err := sess.Trace(true).Write(&buf); err != nil {
				t.Fatal(err)
			}
			c.traces = append(c.traces, buf.Bytes())
		}
		var cfg bytes.Buffer
		if err := cmp.Config.Write(&cfg); err != nil {
			t.Fatal(err)
		}
		c.tables = append(c.tables, cfg.String())
		return c
	}

	seq := sweep(1)
	par := sweep(8)
	if len(seq.traces) != len(par.traces) {
		t.Fatalf("trace count differs: %d vs %d", len(seq.traces), len(par.traces))
	}
	for i := range seq.traces {
		if !bytes.Equal(seq.traces[i], par.traces[i]) {
			t.Errorf("trace %d differs between parallel=1 and parallel=8:\n%s",
				i, firstTraceDiff(seq.traces[i], par.traces[i]))
		}
	}
	if len(seq.tables) != len(par.tables) {
		t.Fatalf("table count differs: %d vs %d", len(seq.tables), len(par.tables))
	}
	for i := range seq.tables {
		if seq.tables[i] != par.tables[i] {
			t.Errorf("table %d differs between parallel=1 and parallel=8:\n%s",
				i, firstTraceDiff([]byte(seq.tables[i]), []byte(par.tables[i])))
		}
	}
}
