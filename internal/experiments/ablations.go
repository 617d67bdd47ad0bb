package experiments

import (
	"fmt"

	"chopper"
	"chopper/internal/cluster"
	"chopper/internal/config"
	"chopper/internal/core"
	"chopper/internal/exec"
	"chopper/internal/experiments/driver"
	"chopper/internal/model"
	"chopper/internal/rdd"
	"chopper/internal/workloads"
)

// RunAblations executes the design-choice ablations listed in DESIGN.md and
// returns one table per ablation. Each ablation profiles and runs its own
// fresh stacks, so the six execute concurrently on the driver pool.
func RunAblations(quick bool) ([]Table, error) {
	ablations := []func(bool) (Table, error){
		AblationGlobalVsPerStage,
		AblationGammaSensitivity,
		AblationPartitionerChoice,
		AblationModelFeatures,
		AblationSpeculationVsPartitioning,
		AblationHeterogeneity,
	}
	return driver.Map(len(ablations), func(i int) (Table, error) {
		return ablations[i](quick)
	})
}

// configFromSchemes converts optimizer output into a configuration file.
func configFromSchemes(workload string, schemes []core.StageScheme) *config.File {
	f := &config.File{Workload: workload}
	for _, s := range schemes {
		f.Set(config.Entry{
			Signature:         s.Signature,
			Scheme:            s.Partitioner,
			NumPartitions:     s.NumPartitions,
			InsertRepartition: s.InsertRepartition,
		})
	}
	return f
}

// runWithConfig executes a workload tuned by cf (vanilla when nil) and
// reports the total simulated time.
func runWithConfig(w workloads.Workload, bytes int64, cf *config.File) (float64, error) {
	var opts []chopper.Option
	if cf != nil {
		opts = append(opts, chopper.WithTuning(cf))
	}
	sess, _, err := runSession(w, bytes, opts...)
	if err != nil {
		return 0, err
	}
	return elapsed(sess), nil
}

// profile runs the evaluation's profiling grid for w and returns the
// statistics.
func profile(w workloads.Workload, bytes int64, quick bool) (*core.DB, error) {
	tn := newTuner(quick)
	return tn.DB, tn.Profile(&app{w: w, bytes: bytes})
}

// AblationGlobalVsPerStage compares Algorithm 2 (per-stage optima) against
// Algorithm 3 (global, DAG-regrouped) on the join-heavy SQL workload.
func AblationGlobalVsPerStage(quick bool) (Table, error) {
	_, _, s := evalWorkloads(quick)
	bytes := s.DefaultInputBytes()
	db, err := profile(s, bytes, quick)
	if err != nil {
		return Table{}, err
	}
	o := core.NewOptimizer(db)

	vanilla, err := runWithConfig(s, bytes, nil)
	if err != nil {
		return Table{}, err
	}
	perStage, err := o.GetWorkloadPar(s.Name(), float64(bytes))
	if err != nil {
		return Table{}, err
	}
	tPer, err := runWithConfig(s, bytes, configFromSchemes(s.Name(), perStage))
	if err != nil {
		return Table{}, err
	}
	global, err := o.GetGlobalPar(s.Name(), float64(bytes))
	if err != nil {
		return Table{}, err
	}
	tGlobal, err := runWithConfig(s, bytes, configFromSchemes(s.Name(), global))
	if err != nil {
		return Table{}, err
	}

	return Table{
		Title:  "Ablation — per-stage (Alg. 2) vs global (Alg. 3) optimization, SQL",
		Header: []string{"configuration", "time(s)", "vs vanilla"},
		Rows: [][]string{
			{"vanilla (300, hash)", f1(vanilla), "-"},
			{"Alg. 2 per-stage", f1(tPer), fpct((vanilla - tPer) / vanilla * 100)},
			{"Alg. 3 global", f1(tGlobal), fpct((vanilla - tGlobal) / vanilla * 100)},
		},
	}, nil
}

// fixedJoin is a workload whose aggregation is user-pinned to a bad
// partition count — the scenario Algorithm 3's repartition insertion (and
// its gamma gate) exists for.
type fixedJoin struct {
	inner  *workloads.SQL
	fixedP int
}

func (f *fixedJoin) Name() string             { return "fixedsql" }
func (f *fixedJoin) DefaultInputBytes() int64 { return f.inner.DefaultInputBytes() }

func (f *fixedJoin) Run(ctx *rdd.Context, inputBytes int64) (workloads.Result, error) {
	// Reuse the SQL generator but pin the aggregation partitioning. The
	// whole pipeline is one job: the user-fixed aggregation directly feeds
	// a compute-heavy narrow stage whose task count it determines — the
	// paper's motivating scenario for inserting a repartition phase.
	s := f.inner
	physTotal := int64(s.Orders)*40 + int64(s.Customers)*32
	ctx.LogicalScale = float64(inputBytes) / float64(physTotal)

	orders := ctx.Generate("ordersFixed", 0, inputBytes, func(split, total int) []rdd.Row {
		var rows []rdd.Row
		for i := split; i < s.Orders; i += total {
			cust := workloads.ZipfIndexForTest(s.Seed, int64(i), s.Customers)
			rows = append(rows, rdd.Pair{K: cust, V: 1.0})
		}
		return rows
	})
	agg := orders.ReduceByKeyPart(func(a, b any) any {
		return a.(float64) + b.(float64)
	}, rdd.NewHashPartitioner(f.fixedP))
	heavy := agg.MapCost("heavyPost", 6.0, func(r rdd.Row) rdd.Row { return r })
	n, err := heavy.Count()
	if err != nil {
		return workloads.Result{}, err
	}
	return workloads.Result{Checksum: float64(n)}, nil
}

// AblationGammaSensitivity sweeps the repartition benefit factor.
func AblationGammaSensitivity(quick bool) (Table, error) {
	inner := workloads.NewSQL()
	if quick {
		inner.Orders = 6000
		inner.Customers = 400
	}
	w := &fixedJoin{inner: inner, fixedP: 8} // badly pinned
	bytes := w.DefaultInputBytes()
	db, err := profile(w, bytes, quick)
	if err != nil {
		return Table{}, err
	}
	vanilla, err := runWithConfig(w, bytes, nil)
	if err != nil {
		return Table{}, err
	}

	t := Table{
		Title:  "Ablation — repartition benefit factor gamma (fixed-partitioning SQL)",
		Header: []string{"gamma", "repartition inserted", "time(s)", "vs vanilla"},
	}
	for _, gamma := range []float64{1.0, 1.5, 3.0, 10.0} {
		o := core.NewOptimizer(db)
		o.Gamma = gamma
		schemes, err := o.GetGlobalPar(w.Name(), float64(bytes))
		if err != nil {
			return Table{}, err
		}
		inserted := false
		for _, s := range schemes {
			if s.InsertRepartition {
				inserted = true
			}
		}
		tt, err := runWithConfig(w, bytes, configFromSchemes(w.Name(), schemes))
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", gamma),
			fmt.Sprintf("%v", inserted),
			f1(tt),
			fpct((vanilla - tt) / vanilla * 100),
		})
	}
	t.Rows = append(t.Rows, []string{"(vanilla)", "-", f1(vanilla), "-"})
	return t, nil
}

// AblationPartitionerChoice compares hash-only, range-only and CHOPPER's
// learned per-stage choice on the skewed SQL workload.
func AblationPartitionerChoice(quick bool) (Table, error) {
	_, _, s := evalWorkloads(quick)
	bytes := s.DefaultInputBytes()
	db, err := profile(s, bytes, quick)
	if err != nil {
		return Table{}, err
	}
	o := core.NewOptimizer(db)
	free, err := o.GetGlobalPar(s.Name(), float64(bytes))
	if err != nil {
		return Table{}, err
	}

	force := func(scheme rdd.SchemeName) *config.File {
		f := configFromSchemes(s.Name(), free)
		for i := range f.Entries {
			f.Entries[i].Scheme = scheme
		}
		return f
	}
	tHash, err := runWithConfig(s, bytes, force(rdd.SchemeHash))
	if err != nil {
		return Table{}, err
	}
	tRange, err := runWithConfig(s, bytes, force(rdd.SchemeRange))
	if err != nil {
		return Table{}, err
	}
	tFree, err := runWithConfig(s, bytes, configFromSchemes(s.Name(), free))
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:  "Ablation — partitioner choice under key skew (SQL)",
		Header: []string{"partitioners", "time(s)"},
		Rows: [][]string{
			{"hash only", f1(tHash)},
			{"range only", f1(tRange)},
			{"chopper per-stage choice", f1(tFree)},
		},
	}, nil
}

// AblationModelFeatures compares the paper's full basis with a linear-only
// basis: configurations generated by each are executed and timed.
func AblationModelFeatures(quick bool) (Table, error) {
	k := quickKMeans(quick)
	bytes := k.DefaultInputBytes()
	db, err := profile(k, bytes, quick)
	if err != nil {
		return Table{}, err
	}
	run := func(set model.FeatureSet) (float64, error) {
		o := core.NewOptimizer(db)
		o.Features = set
		schemes, err := o.GetGlobalPar(k.Name(), float64(bytes))
		if err != nil {
			return 0, err
		}
		return runWithConfig(k, bytes, configFromSchemes(k.Name(), schemes))
	}
	tFull, err := run(model.FullFeatures)
	if err != nil {
		return Table{}, err
	}
	tLin, err := run(model.LinearFeatures)
	if err != nil {
		return Table{}, err
	}
	vanilla, err := runWithConfig(k, bytes, nil)
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:  "Ablation — model basis (KMeans)",
		Header: []string{"basis", "time(s)", "vs vanilla"},
		Rows: [][]string{
			{"full (Eq. 1-2)", f1(tFull), fpct((vanilla - tFull) / vanilla * 100)},
			{"linear only", f1(tLin), fpct((vanilla - tLin) / vanilla * 100)},
			{"(vanilla)", f1(vanilla), "-"},
		},
	}, nil
}

// AblationSpeculationVsPartitioning contrasts reactive straggler mitigation
// (speculative execution) with CHOPPER's proactive partitioning on the
// skewed SQL workload: backups cannot shrink a hot partition, so the
// partitioning fix should dominate.
func AblationSpeculationVsPartitioning(quick bool) (Table, error) {
	_, _, s := evalWorkloads(quick)
	bytes := s.DefaultInputBytes()
	cf, err := newTuner(quick).Train(&app{w: s, bytes: bytes})
	if err != nil {
		return Table{}, err
	}

	run := func(speculate, tuned bool) (float64, error) {
		var opts []chopper.Option
		if speculate {
			opts = append(opts, engine(func(e *exec.Engine) { e.Speculate = true }))
		}
		if tuned {
			opts = append(opts, chopper.WithTuning(cf))
		}
		sess, _, err := runSession(s, bytes, opts...)
		if err != nil {
			return 0, err
		}
		return elapsed(sess), nil
	}
	vanilla, err := run(false, false)
	if err != nil {
		return Table{}, err
	}
	spec, err := run(true, false)
	if err != nil {
		return Table{}, err
	}
	tuned, err := run(false, true)
	if err != nil {
		return Table{}, err
	}
	both, err := run(true, true)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title:  "Ablation — reactive (speculation) vs proactive (CHOPPER) skew handling, SQL",
		Header: []string{"configuration", "time(s)", "vs vanilla"},
	}
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"vanilla", vanilla},
		{"vanilla + speculation", spec},
		{"chopper", tuned},
		{"chopper + speculation", both},
	} {
		t.Rows = append(t.Rows, []string{row.name, f1(row.v), fpct((vanilla - row.v) / vanilla * 100)})
	}
	return t, nil
}

// AblationHeterogeneity compares CHOPPER's gain on the paper's heterogeneous
// cluster against an equal-capacity homogeneous one (4 x 28 cores @ 2 GHz):
// the paper notes CHOPPER accounts for cluster heterogeneity.
func AblationHeterogeneity(quick bool) (Table, error) {
	k, _, _ := evalWorkloads(quick)
	bytes := k.DefaultInputBytes()

	measure := func(topo *cluster.Topology) (float64, float64, error) {
		c, err := compare(k, bytes, quick, chopper.WithTopology(topo))
		if err != nil {
			return 0, 0, err
		}
		return elapsed(c.Spark), elapsed(c.Chopper), nil
	}

	hs, hc, err := measure(cluster.PaperCluster())
	if err != nil {
		return Table{}, err
	}
	us, uc, err := measure(cluster.UniformCluster(4, 28, 2.0))
	if err != nil {
		return Table{}, err
	}
	return Table{
		Title:  "Ablation — heterogeneous (paper) vs homogeneous cluster, KMeans",
		Header: []string{"cluster", "spark(s)", "chopper(s)", "improvement"},
		Rows: [][]string{
			{"heterogeneous 3x32@2.0 + 2x8@2.3", f1(hs), f1(hc), fpct((hs - hc) / hs * 100)},
			{"homogeneous 4x28@2.0", f1(us), f1(uc), fpct((us - uc) / us * 100)},
		},
	}, nil
}
