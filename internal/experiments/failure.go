package experiments

import (
	"fmt"
	"math"

	"chopper"
	"chopper/internal/exec"
)

// FailureResult is one row of the fault-tolerance study.
type FailureResult struct {
	Mode        string
	Healthy     float64 // seconds, no failure
	WithFailure float64 // seconds, one node killed mid-run
	Checksum    float64 // workload result under failure (must equal healthy)
	OverheadPct float64
}

// RunFailureStudy addresses the paper's future-work question — how CHOPPER
// behaves under failures — by killing worker "C" (32 of 112 cores, plus its
// cached partitions) right after the given stage completes, under both the
// vanilla and the tuned configuration. Lost cached partitions recompute from
// lineage; the run must still produce the identical result.
func RunFailureStudy(quick bool, failAfterStage int) ([]FailureResult, Table, error) {
	k, _, _ := evalWorkloads(quick)
	bytes := k.DefaultInputBytes()
	cf, err := newTuner(quick).Train(&app{w: k, bytes: bytes})
	if err != nil {
		return nil, Table{}, err
	}

	run := func(mode string, tuned bool, fail bool) (float64, float64, error) {
		var opts []chopper.Option
		if tuned {
			opts = append(opts, chopper.WithTuning(cf))
		}
		if fail {
			opts = append(opts, engine(func(e *exec.Engine) {
				e.AfterStage = func(done int) {
					if done == failAfterStage {
						_ = e.KillNode("C")
					}
				}
			}))
		}
		sess, res, err := runSession(k, bytes, opts...)
		if err != nil {
			return 0, 0, fmt.Errorf("experiments: failure study %s: %w", mode, err)
		}
		return elapsed(sess), res.Checksum, nil
	}

	var out []FailureResult
	for _, side := range []struct {
		mode  string
		tuned bool
	}{{"spark", false}, {"chopper", true}} {
		healthy, sumH, err := run(side.mode, side.tuned, false)
		if err != nil {
			return nil, Table{}, err
		}
		failed, sumF, err := run(side.mode+"+failure", side.tuned, true)
		if err != nil {
			return nil, Table{}, err
		}
		if math.Abs(sumH-sumF) > 1e-6*math.Abs(sumH) {
			return nil, Table{}, fmt.Errorf("experiments: %s: failure changed the result: %v vs %v", side.mode, sumH, sumF)
		}
		out = append(out, FailureResult{
			Mode:        side.mode,
			Healthy:     healthy,
			WithFailure: failed,
			Checksum:    sumF,
			OverheadPct: (failed - healthy) / healthy * 100,
		})
	}

	t := Table{
		Title: fmt.Sprintf("Extension — node C fails after stage %d (KMeans); results verified identical", failAfterStage),
		Header: []string{
			"mode", "healthy(s)", "with failure(s)", "recovery overhead",
		},
	}
	for _, r := range out {
		t.Rows = append(t.Rows, []string{r.Mode, f1(r.Healthy), f1(r.WithFailure), fpct(r.OverheadPct)})
	}
	return out, t, nil
}
