package layers

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"chopper"
	"chopper/bench/internal/loads"
	"chopper/internal/config"
	"chopper/internal/core"
	"chopper/internal/metrics"
	"chopper/internal/model"
	"chopper/internal/workloads"
)

// storeLayers probes model, core, config, the tuner and the metrics
// registry, on the trained fixture store.
func (p *prober) storeLayers() error {
	base := p.trainedBase()
	for _, sub := range []string{"trained", "append", "replica"} {
		if err := os.MkdirAll(filepath.Join(p.dir, sub), 0o755); err != nil {
			return err
		}
	}
	db, err := loads.TrainStore(p.seed, base)
	if err != nil {
		return err
	}
	sql, err := loads.Scaled("sql", 1, loads.TuneShrink, p.seed)
	if err != nil {
		return err
	}
	obs, err := harvest(sql)
	if err != nil {
		return err
	}
	if err := p.modelLayer(db); err != nil {
		return err
	}
	if err := p.optimizerLayer(db, sql, obs); err != nil {
		return err
	}
	if err := p.journalLayer(db, base, sql, obs); err != nil {
		return err
	}
	if err := p.tunerLayer(sql); err != nil {
		return err
	}
	h := metrics.NewHistogram()
	const batch = 10_000
	p.out["metrics.observe_ns"] = p.fast("metrics.observe_ns", func() {
		for i := 0; i < batch; i++ {
			h.Observe(float64(i%997) * 1e-5)
		}
	}) / batch
	return nil
}

// trainedBase is where this run's trained store image lives.
func (p *prober) trainedBase() string { return filepath.Join(p.dir, "trained", "profiles.db") }

// harvest runs w once on a vanilla session and returns the stage
// observations a daemon would fold into its store for that run.
func harvest(w workloads.Workload) ([]core.StageObservation, error) {
	app := &loads.App{W: w}
	sess := chopper.NewSession()
	if err := app.Run(sess, app.InputBytes()); err != nil {
		return nil, err
	}
	var got []core.StageObservation
	tmp := core.NewDB()
	tmp.SetObserver(func(_ string, _ float64, obs []core.StageObservation) { got = obs })
	(&chopper.Tuner{DB: tmp}).Observe(sess, app, app.InputBytes())
	if len(got) == 0 {
		return nil, fmt.Errorf("harvested no observations from %s", w.Name())
	}
	return got, nil
}

// modelLayer times one stage fit and one cost minimisation on the
// fixture's best-sampled sql stage.
func (p *prober) modelLayer(db *core.DB) error {
	var samples []model.Sample
	for _, n := range db.Nodes("sql") {
		if s := db.SamplesFor("sql", n.Signature, "hash"); len(s) > len(samples) {
			samples = s
		}
	}
	o := core.NewOptimizer(db)
	sm, err := model.FitStage(samples, o.Features, o.Ridge)
	if err != nil {
		return err
	}
	d := samples[len(samples)-1].D
	p.out["model.fit_stage_us"] = p.fast("model.fit_stage_us", func() {
		_, err = model.FitStage(samples, o.Features, o.Ridge)
	}) / 1e3
	if err != nil {
		return err
	}
	p.out["model.minimize_us"] = p.fast("model.minimize_us", func() {
		_, _, err = sm.MinimizeCost(d, o.Candidates, o.DefaultParallelism, o.Alpha, o.Beta)
	}) / 1e3
	return err
}

// optimizerLayer times the pieces of one recommend: the copy-on-read
// clone, then refit + optimise on the clone; and the config file format.
func (p *prober) optimizerLayer(db *core.DB, sql workloads.Workload, obs []core.StageObservation) error {
	p.out["core.clone_us"] = p.fast("core.clone_us", func() { db.CloneWorkload("sql") }) / 1e3
	var cf *config.File
	var err error
	// The optimizer only reads its DB, so one private clone serves every
	// call; the daemon's per-request clone is core.clone_us above.
	generate := func(metric string, clone *core.DB, name string, bytes float64) {
		p.out[metric] = p.fast(metric, func() {
			var gerr error
			if cf, gerr = core.NewOptimizer(clone).GenerateConfig(name, bytes); gerr != nil {
				err = gerr
			}
		}) / 1e3
	}
	km, kerr := workloads.ByName("kmeans")
	if kerr != nil {
		return kerr
	}
	generate("core.generate_config_us.kmeans", db.CloneWorkload("kmeans"), "kmeans", float64(km.DefaultInputBytes()))
	// The same question after 400 more production runs were recorded.
	big := db.CloneWorkload("sql")
	for i := 0; i < 400; i++ {
		big.AddRun("sql", float64(sql.DefaultInputBytes()), obs)
	}
	generate("core.generate_config_us.runs400", big, "sql", float64(sql.DefaultInputBytes()))
	generate("core.generate_config_us.sql", db.CloneWorkload("sql"), "sql", float64(sql.DefaultInputBytes()))
	if err != nil {
		return err
	}

	grow := db.CloneWorkload("sql")
	p.out["core.add_run_us"] = p.fast("core.add_run_us", func() {
		grow.AddRun("sql", float64(sql.DefaultInputBytes()), obs)
	}) / 1e3

	var buf bytes.Buffer
	p.out["config.write_parse_us"] = p.fast("config.write_parse_us", func() {
		buf.Reset()
		if werr := cf.Write(&buf); werr != nil {
			err = werr
		}
		if _, perr := config.Parse(&buf); perr != nil {
			err = perr
		}
	}) / 1e3
	return err
}

// journalLayer times the durable store: append with and without fsync,
// snapshot, recovery, and the two halves of segment shipping.
func (p *prober) journalLayer(db *core.DB, trained string, sql workloads.Workload, obs []core.StageObservation) error {
	bytesIn := float64(sql.DefaultInputBytes())
	store, _, err := core.OpenStore(filepath.Join(p.dir, "append", "profiles.db"))
	if err != nil {
		return err
	}
	appendOne := func() {
		if aerr := store.Append("sql", bytesIn, obs); aerr != nil {
			err = aerr
		}
	}
	size0 := store.JournalSize()
	appendOne()
	p.out["core.journal_b_per_run"] = float64(store.JournalSize() - size0)
	store.SyncAppends = false
	p.out["core.append_us_nosync"] = p.fast("core.append_us_nosync", appendOne) / 1e3
	store.SyncAppends = true
	p.out["core.append_us_sync"] = p.slow("core.append_us_sync", 500*time.Millisecond, appendOne) / 1e3
	p.out["core.fsync_us"] = p.out["core.append_us_sync"] - p.out["core.append_us_nosync"]

	var seg []byte
	p.out["core.read_segment_us_64k"] = p.fast("core.read_segment_us_64k", func() {
		var rerr error
		if seg, _, rerr = store.ReadSegment(0, 64<<10); rerr != nil {
			err = rerr
		}
	}) / 1e3
	replica, _, rerr := core.OpenStore(filepath.Join(p.dir, "replica", "profiles.db"))
	if rerr != nil {
		return rerr
	}
	p.out["core.append_raw_us_64k"] = p.slow("core.append_raw_us_64k", 300*time.Millisecond, func() {
		if _, aerr := replica.AppendRaw(seg); aerr != nil {
			err = aerr
		}
	}) / 1e3
	p.ops.Check(len(seg) > 48<<10)
	if cerr := replica.Close(); err == nil {
		err = cerr
	}

	p.out["core.snapshot_ms"] = p.slow("core.snapshot_ms", 300*time.Millisecond, func() {
		if serr := store.Snapshot(db); serr != nil {
			err = serr
		}
	}) / 1e6
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	reopen := filepath.Join(p.dir, "reopen", "profiles.db")
	if err := loads.CopyStore(trained, reopen); err != nil {
		return err
	}
	p.out["core.open_replay_ms"] = p.slow("core.open_replay_ms", 300*time.Millisecond, func() {
		st, got, oerr := core.OpenStore(reopen)
		if oerr != nil {
			err = oerr
			return
		}
		p.ops.Check(got.RunCount("sql") == db.RunCount("sql") && st.JournalRecords() > 0)
		if cerr := st.Close(); cerr != nil {
			err = cerr
		}
	}) / 1e6
	return err
}

// tunerLayer times the offline pipeline's units and records the paper's
// Fig. 7 quantity at this scale: simulated seconds saved by the tuned run.
func (p *prober) tunerLayer(sql workloads.Workload) error {
	var err error
	one := chopper.TrialPlan{SizeFractions: []float64{1}, Partitions: []int{300}}
	p.out["chopper.profile_run_ms"] = p.slow("chopper.profile_run_ms", 300*time.Millisecond, func() {
		tn := &chopper.Tuner{DB: core.NewDB(), Plan: one}
		if perr := tn.Profile(&loads.App{W: sql}); perr != nil {
			err = perr
		}
	}) / 1e6 / 2 // the default run plus one forced run
	p.out["chopper.train_ms.sql"] = p.slow("chopper.train_ms.sql", 600*time.Millisecond, func() {
		tn := &chopper.Tuner{DB: core.NewDB(), Plan: loads.TunePlan}
		if _, terr := tn.Train(&loads.App{W: sql}); terr != nil {
			err = terr
		}
	}) / 1e6
	if err != nil {
		return err
	}
	for _, name := range []string{"sql", "kmeans"} {
		w, werr := loads.Scaled(name, 1, min(loads.TuneShrink, loads.TrainShrink(name)), p.seed)
		if werr != nil {
			return werr
		}
		app := &loads.App{W: w}
		tn := &chopper.Tuner{DB: core.NewDB(), Plan: loads.TunePlan}
		vanilla, tuned, _, cerr := tn.RunComparison(app)
		if cerr != nil {
			return cerr
		}
		n := len(app.Sums)
		p.ops.Check(loads.SameSum(app.Sums[n-2], app.Sums[n-1]))
		p.out["core.tuned_gain_pct."+name] = 100 * (vanilla - tuned) / vanilla
	}
	return nil
}
