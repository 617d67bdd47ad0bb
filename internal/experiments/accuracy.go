package experiments

import (
	"fmt"
	"math"

	"chopper"
	"chopper/internal/core"
	"chopper/internal/model"
)

// ModelAccuracy validates the fitted Eq. 1 models out-of-sample: after
// training on the profile grid, the tuned configuration is executed and
// each stage's *measured* time is compared with the model's *prediction*
// at the chosen partition count. The paper's claim that the coarse model
// "fits the actual execution time well" is checked here.
func ModelAccuracy(quick bool) (Table, float64, error) {
	k, _, _ := evalWorkloads(quick)
	bytes := k.DefaultInputBytes()
	tn := newTuner(quick)
	cf, err := tn.Train(&app{w: k, bytes: bytes})
	if err != nil {
		return Table{}, 0, err
	}
	sess, _, err := runSession(k, bytes, chopper.WithTuning(cf))
	if err != nil {
		return Table{}, 0, err
	}

	t := Table{
		Title:  "Extension — model accuracy: predicted vs measured stage time (KMeans, tuned run)",
		Header: []string{"stage", "name", "P", "predicted(s)", "measured(s)", "error"},
	}
	var sumAbsErr, n float64
	seen := map[string]bool{}
	for _, st := range sess.Metrics().Stages() {
		if seen[st.Signature] {
			continue // iterative stages: report each signature once
		}
		seen[st.Signature] = true
		d := float64(st.InputBytes + st.ShuffleRead)
		sm, err := core_FitForAccuracy(tn.DB, st.Signature, st.Partitioner, d)
		if err != nil {
			continue
		}
		pred := sm.Texe.Predict(d, float64(st.NumTasks))
		meas := st.Duration()
		if meas <= 0 {
			continue
		}
		errPct := (pred - meas) / meas * 100
		sumAbsErr += math.Abs(errPct)
		n++
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", st.ID), st.Name,
			fmt.Sprintf("%d", st.NumTasks),
			f1(pred), f1(meas), fpct(errPct),
		})
	}
	if n == 0 {
		return Table{}, 0, fmt.Errorf("experiments: no stages with trainable models")
	}
	mae := sumAbsErr / n
	t.Rows = append(t.Rows, []string{"", "mean absolute error", "", "", "", fpct(mae)})
	return t, mae, nil
}

// core_FitForAccuracy fits the evaluation model the optimizer would use for
// the stage, preferring the scheme the stage actually ran under.
func core_FitForAccuracy(db *core.DB, sig, scheme string, d float64) (*model.StageModels, error) {
	order := []string{scheme, "hash", "range", "input"}
	var lastErr error
	for _, s := range order {
		samples := db.SamplesFor("kmeans", sig, s)
		if d > 0 {
			var local []model.Sample
			for _, sm := range samples {
				if sm.D >= 0.55*d && sm.D <= 1.8*d {
					local = append(local, sm)
				}
			}
			if len(local) >= model.MinSamples {
				samples = local
			}
		}
		if len(samples) < model.MinSamples {
			lastErr = fmt.Errorf("experiments: %d samples for %s/%s", len(samples), sig, s)
			continue
		}
		return model.FitStage(samples, model.FullFeatures, 1e-6)
	}
	return nil, lastErr
}

// OnlineRetraining exercises the paper's production-statistics loop: after
// the offline training round, each tuned run is harvested back into the
// workload DB and the configuration is regenerated. The table reports the
// time of each round; retraining must never make the workload slower than
// the first tuned round by more than noise.
func OnlineRetraining(quick bool, rounds int) (Table, error) {
	k, _, _ := evalWorkloads(quick)
	bytes := k.DefaultInputBytes()
	a := &app{w: k, bytes: bytes}
	tn := newTuner(quick)
	if err := tn.Profile(a); err != nil {
		return Table{}, err
	}

	t := Table{
		Title:  "Extension — online retraining from production runs (KMeans)",
		Header: []string{"round", "time(s)", "db samples"},
	}
	vanilla, _, err := runSession(k, bytes)
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []string{"vanilla", f1(elapsed(vanilla)), fmt.Sprintf("%d", tn.DB.SampleCount(k.Name()))})

	for round := 1; round <= rounds; round++ {
		cf, err := tn.Optimize(a)
		if err != nil {
			return Table{}, err
		}
		sess, _, err := runSession(k, bytes, chopper.WithTuning(cf))
		if err != nil {
			return Table{}, err
		}
		// Production statistics feed the next round.
		tn.Observe(sess, a, bytes)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", round),
			f1(elapsed(sess)),
			fmt.Sprintf("%d", tn.DB.SampleCount(k.Name())),
		})
	}
	return t, nil
}
