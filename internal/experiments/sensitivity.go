package experiments

import (
	"fmt"

	"chopper/internal/cluster"
	"chopper/internal/experiments/driver"
	"chopper/internal/session"
)

// SensitivityStudy checks that the reproduction's headline conclusion —
// CHOPPER beats vanilla Spark — is robust to the calibrated cost constants
// rather than an artifact of one parameter choice. Each scenario scales one
// cost-model knob and re-runs the full train-and-compare pipeline on SQL.
func SensitivityStudy(quick bool) (Table, error) {
	base := cluster.DefaultCostParams()
	scenarios := []struct {
		name   string
		mutate func(p cluster.CostParams) cluster.CostParams
	}{
		{"calibrated (baseline)", func(p cluster.CostParams) cluster.CostParams { return p }},
		{"compute x0.5", func(p cluster.CostParams) cluster.CostParams {
			p.ComputeSecPerGBPerGHz *= 0.5
			return p
		}},
		{"compute x2", func(p cluster.CostParams) cluster.CostParams {
			p.ComputeSecPerGBPerGHz *= 2
			return p
		}},
		{"task overhead x0.5", func(p cluster.CostParams) cluster.CostParams {
			p.TaskFixedSec *= 0.5
			return p
		}},
		{"task overhead x2", func(p cluster.CostParams) cluster.CostParams {
			p.TaskFixedSec *= 2
			return p
		}},
		{"mem pressure off", func(p cluster.CostParams) cluster.CostParams {
			p.MemPressureFactor = 0
			return p
		}},
		{"net x0.5", func(p cluster.CostParams) cluster.CostParams {
			p.NetEfficiency *= 0.5
			return p
		}},
	}

	t := Table{
		Title:  "Extension — cost-model sensitivity (SQL, full pipeline per scenario)",
		Header: []string{"scenario", "spark(s)", "chopper(s)", "improvement"},
	}
	// Each scenario is a full independent pipeline (own workload instance,
	// own DB, fresh stacks); rows come back in scenario order.
	rows, err := driver.Map(len(scenarios), func(i int) ([]string, error) {
		sc := scenarios[i]
		_, _, s := evalWorkloads(quick)
		params := sc.mutate(base)
		c, err := compare(s, s.DefaultInputBytes(), quick, func(cfg *session.Config) { cfg.Params = params })
		if err != nil {
			return nil, fmt.Errorf("experiments: sensitivity %q: %w", sc.name, err)
		}
		sv, tv := elapsed(c.Spark), elapsed(c.Chopper)
		return []string{sc.name, f1(sv), f1(tv), fpct((sv - tv) / sv * 100)}, nil
	})
	if err != nil {
		return Table{}, err
	}
	t.Rows = rows
	return t, nil
}
