package experiments

import (
	"fmt"

	"chopper/internal/config"
	"chopper/internal/core"
	"chopper/internal/plan/extract"
	"chopper/internal/workloads"
)

// ColdStartRow is one workload's first-run comparison: the simulated wall
// time of an unprofiled run under the default plan versus under the
// statically seeded plan, plus how many stages the seed actually configured.
type ColdStartRow struct {
	Workload    string
	Entries     int
	DefaultTime float64
	SeededTime  float64
}

// Speedup is default/seeded (1.0 = parity).
func (r ColdStartRow) Speedup() float64 {
	if r.SeededTime <= 0 {
		return 1
	}
	return r.DefaultTime / r.SeededTime
}

// ColdStartSeeding measures the chopperkey cold-start path on every named
// workload: extract KeyFacts statically, derive seed hints, build a seeded
// configuration through the optimizer (no DB, no profiles), and compare the
// first run against the default plan. Workloads whose hints carry no
// provable bounds get an empty seed and run the default plan — seeding is
// never worse than doing nothing.
func ColdStartSeeding(names []string, inputScale float64) ([]ColdStartRow, error) {
	ex, err := extract.New(".")
	if err != nil {
		return nil, err
	}
	opt := core.NewOptimizer(nil)
	opt.DefaultParallelism = DefaultParallelism

	var out []ColdStartRow
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		bytes := w.DefaultInputBytes()
		if inputScale > 0 && inputScale != 1 {
			bytes = int64(float64(bytes) * inputScale)
		}

		rep, err := ex.Extract(w, bytes, DefaultParallelism)
		if err != nil {
			return nil, fmt.Errorf("experiments: cold-start extract %s: %w", name, err)
		}
		seed, err := opt.SeedConfig(name, rep.SeedHints())
		if err != nil {
			return nil, err
		}

		defTime, err := coldStartRun(w, bytes, nil)
		if err != nil {
			return nil, err
		}
		seededTime, err := coldStartRun(w, bytes, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, ColdStartRow{
			Workload:    name,
			Entries:     len(seed.Entries),
			DefaultTime: defTime,
			SeededTime:  seededTime,
		})
	}
	return out, nil
}

// coldStartRun executes one fresh (unprofiled) run and returns its simulated
// wall time; a nil file runs the default plan.
func coldStartRun(w workloads.Workload, bytes int64, f *config.File) (float64, error) {
	var opt Options
	opt.Mode = "spark"
	if f != nil && len(f.Entries) > 0 {
		opt.Configurator = &config.Static{F: f}
		opt.Mode = "chopper"
	}
	rt, _, err := RunWorkload(w, bytes, opt)
	if err != nil {
		return 0, err
	}
	return rt.Col.TotalTime(), nil
}
