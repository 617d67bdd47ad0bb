package layers

import (
	"fmt"
	"strconv"
	"time"

	"chopper"
	"chopper/bench/internal/loads"
	"chopper/bench/internal/stats"
	"chopper/internal/cluster"
	"chopper/internal/core"
	"chopper/internal/dag"
	"chopper/internal/exec"
	"chopper/internal/metrics"
	"chopper/internal/rdd"
	"chopper/internal/shuffle"
	"chopper/internal/simclock"
	"chopper/internal/workloads"
)

// captureRunner records the target of every job a workload submits, then
// hands the job to the real scheduler.
type captureRunner struct {
	inner   rdd.JobRunner
	targets []*rdd.RDD
}

// RunJob implements rdd.JobRunner.
func (c *captureRunner) RunJob(t *rdd.RDD, fn func(int, []rdd.Row) (any, error)) ([]any, error) {
	c.targets = append(c.targets, t)
	return c.inner.RunJob(t, fn)
}

// captured is one real run of a workload with its lineage kept.
type captured struct {
	eng     *exec.Engine
	scale   float64
	targets []*rdd.RDD
}

// capture runs w once on a vanilla engine and keeps every job's target RDD.
func capture(w workloads.Workload) (*captured, error) {
	ctx := rdd.NewContext(300)
	eng := exec.New(cluster.PaperCluster(), cluster.DefaultCostParams(), ctx, metrics.NewCollector(w.Name(), "spark"), false)
	c := &captureRunner{inner: dag.NewScheduler(ctx, eng)}
	ctx.SetRunner(c)
	if _, err := w.Run(ctx, w.DefaultInputBytes()); err != nil {
		return nil, err
	}
	return &captured{eng: eng, scale: ctx.LogicalScale, targets: c.targets}, nil
}

// sourceDep finds the first shuffle dependency whose map side reads only a
// source (no upstream shuffle), with or without an aggregator as asked:
// its map tasks can be re-materialised after the run.
func (c *captured) sourceDep(wantAgg bool) *rdd.ShuffleDep {
	for _, t := range c.targets {
		for _, r := range t.Lineage() {
			for _, d := range r.Deps {
				sd, ok := d.(*rdd.ShuffleDep)
				if !ok || (sd.Agg != nil) != wantAgg {
					continue
				}
				pure := true
				for _, up := range sd.P.Lineage() {
					for _, ud := range up.Deps {
						if _, wide := ud.(*rdd.ShuffleDep); wide {
							pure = false
						}
					}
				}
				if pure {
					return sd
				}
			}
		}
	}
	return nil
}

// mapRows re-materialises the rows map tasks 0..n-1 of dep fed the shuffle.
func (c *captured) mapRows(dep *rdd.ShuffleDep, n int) ([][]rdd.Row, int, error) {
	out := make([][]rdd.Row, n)
	total := 0
	for i := range out {
		rows, err := c.eng.Materialize(dep.P, i)
		if err != nil {
			return nil, 0, err
		}
		out[i] = rows
		total += len(rows)
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("map side of %s produced no rows", dep.P.Op)
	}
	return out, total, nil
}

const (
	probeMaps     = 16 // map blocks per merge
	probeReducers = 64
)

// engineLayers probes rdd, shuffle, dag, exec and simclock.
func (p *prober) engineLayers() error {
	compute, shuf := loads.NewEngineCompute(), loads.NewEngineShuffle()
	if err := compute.Fixture(p.seed, ""); err != nil {
		return err
	}
	if err := shuf.Fixture(p.seed, ""); err != nil {
		return err
	}
	jobs := map[string]workloads.Workload{}
	for _, w := range append(compute.Jobs(), shuf.Jobs()...) {
		jobs[w.Name()] = w
	}

	sqlRun, err := capture(jobs["sql"])
	if err != nil {
		return err
	}
	prRun, err := capture(jobs["pagerank"])
	if err != nil {
		return err
	}
	kmRun, err := capture(jobs["kmeans"])
	if err != nil {
		return err
	}
	if err := p.rddLayer(sqlRun, prRun); err != nil {
		return err
	}
	p.dagLayer("sql", sqlRun)
	p.dagLayer("kmeans", kmRun)

	tiny, err := loads.Scaled("sql", 1, loads.TuneShrink, p.seed)
	if err != nil {
		return err
	}
	tinyRun, err := capture(tiny)
	if err != nil {
		return err
	}
	if err := p.shuffleLayer(tinyRun); err != nil {
		return err
	}
	for _, name := range []string{"kmeans", "pca", "sql", "pagerank"} {
		if err := p.execJob(name, jobs[name], nil); err != nil {
			return err
		}
	}
	for _, parts := range []int{150, 900} {
		force := &core.ForceAll{Spec: dag.SchemeSpec{Scheme: rdd.SchemeHash, NumPartitions: parts}}
		if err := p.execJob("sql_p"+strconv.Itoa(parts), tiny, force); err != nil {
			return err
		}
	}
	p.simclockLayer()
	return nil
}

// rddLayer times the two shuffle kernels on rows of real map tasks.
func (p *prober) rddLayer(sqlRun, prRun *captured) error {
	dep := sqlRun.sourceDep(true)
	scatter := prRun.sourceDep(false)
	if dep == nil || scatter == nil {
		return fmt.Errorf("no source-fed shuffle found in sql/pagerank lineage")
	}
	intRows, nInt, err := sqlRun.mapRows(dep, probeMaps)
	if err != nil {
		return err
	}
	adjRows, nAdj, err := prRun.mapRows(scatter, probeMaps)
	if err != nil {
		return err
	}
	// The same pairs with string keys, for the byte-arena key path.
	strRows := make([][]rdd.Row, len(intRows))
	for i, rows := range intRows {
		strRows[i] = make([]rdd.Row, len(rows))
		for j, r := range rows {
			pr := r.(rdd.Pair)
			strRows[i][j] = rdd.Pair{K: "c" + strconv.Itoa(pr.K.(int)), V: pr.V}
		}
	}
	part := rdd.NewHashPartitioner(probeReducers)
	sum := rdd.SumAggregator()

	partition := func(rows [][]rdd.Row, agg *rdd.Aggregator) ([]*rdd.ColBuckets, error) {
		out := make([]*rdd.ColBuckets, len(rows))
		for i, r := range rows {
			cols, _, err := rdd.PartitionPairsCol(r, part, agg)
			if err != nil {
				return nil, err
			}
			if cols == nil {
				return nil, fmt.Errorf("map task %d fell back to boxed pairs", i)
			}
			out[i] = cols
		}
		return out, nil
	}
	var perr error
	timePartition := func(metric string, rows [][]rdd.Row, n int, agg *rdd.Aggregator) {
		ns := p.fast(metric, func() {
			if _, err := partition(rows, agg); err != nil {
				perr = err
			}
		})
		p.out[metric] = ns / float64(n)
	}
	timePartition("rdd.partition_int_ns_row", intRows, nInt, dep.Agg)
	timePartition("rdd.partition_str_ns_row", strRows, nInt, sum)
	timePartition("rdd.partition_nocombine_ns_row", adjRows, nAdj, nil)
	if perr != nil {
		return perr
	}
	p.out["rdd.partition_alloc_b_row"] = float64(allocBytes(func() { _, _ = partition(intRows, dep.Agg) })) / float64(nInt)

	// Merge every reduce bucket over the 16 map arenas, as a reduce stage
	// would: once with unboxed float sums, once with the boxed values the
	// sql job's own aggregator keeps.
	merge := func(cols []*rdd.ColBuckets, agg *rdd.Aggregator) int {
		rows := 0
		for r := 0; r < probeReducers; r++ {
			rows += len(rdd.MergeReduceColN(len(cols), func(i int, dst *rdd.ColBlock) { cols[i].BucketInto(r, dst) }, agg))
		}
		return rows
	}
	f64Cols, err := partition(intRows, sum)
	if err != nil {
		return err
	}
	anyCols, err := partition(intRows, dep.Agg)
	if err != nil {
		return err
	}
	inRows := func(cols []*rdd.ColBuckets) int {
		n := 0
		var blk rdd.ColBlock
		for _, c := range cols {
			for r := 0; r < probeReducers; r++ {
				c.BucketInto(r, &blk)
				n += blk.Len()
			}
		}
		return n
	}
	p.out["rdd.merge_int_ns_row"] = p.fast("rdd.merge_int_ns_row", func() { merge(f64Cols, sum) }) / float64(inRows(f64Cols))
	p.out["rdd.merge_any_ns_row"] = p.fast("rdd.merge_any_ns_row", func() { merge(anyCols, dep.Agg) }) / float64(inRows(anyCols))
	p.out["rdd.merge_alloc_b_row"] = float64(allocBytes(func() { merge(anyCols, dep.Agg) })) / float64(inRows(anyCols))
	return nil
}

// dagLayer times planning every job of one captured workload.
func (p *prober) dagLayer(name string, run *captured) {
	metric := "dag.build_plan_us." + name
	p.out[metric] = p.fast(metric, func() {
		for _, t := range run.targets {
			_, topo := dag.BuildPlan(t, nil)
			dag.Waves(topo)
		}
	}) / 1e3
}

const shuffleMaps = 300

// shuffleLayer times the map-output tracker at the tune-sweep's shape:
// 300 tiny map outputs, 300 and 900 reduce partitions.
func (p *prober) shuffleLayer(run *captured) error {
	dep := run.sourceDep(true)
	if dep == nil {
		return fmt.Errorf("no source-fed shuffle in tiny sql lineage")
	}
	rows, _, err := run.mapRows(dep, probeMaps)
	if err != nil {
		return err
	}
	params := cluster.DefaultCostParams()
	var nodes []string
	for _, n := range cluster.PaperCluster().Workers() {
		nodes = append(nodes, n.Name)
	}
	outputs := func(reducers int) ([]shuffle.MapOutput, error) {
		part := rdd.NewHashPartitioner(reducers)
		outs := make([]shuffle.MapOutput, len(rows))
		for i, r := range rows {
			cols, _, err := rdd.PartitionPairsCol(r, part, dep.Agg)
			if err != nil || cols == nil {
				return nil, fmt.Errorf("tiny map task %d did not produce an arena: %v", i, err)
			}
			payloads := make([]int64, reducers)
			for b := range payloads {
				payloads[b] = int64(cols.LogicalBytes(b, run.scale))
			}
			outs[i] = shuffle.MapOutput{Cols: cols, Payloads: payloads}
		}
		return outs, nil
	}
	fill := func(m *shuffle.Manager, id, reducers int, outs []shuffle.MapOutput) {
		m.Register(id, shuffleMaps, reducers)
		for t := 0; t < shuffleMaps; t++ {
			m.PutMapOutput(id, t, nodes[t%len(nodes)], outs[t%len(outs)])
		}
	}
	newManager := func() *shuffle.Manager {
		return shuffle.NewManager(int64(params.ShuffleBlockOverheadBytes), int64(params.ShuffleEmptyBlockBytes))
	}
	for _, reducers := range []int{300, 900} {
		outs, err := outputs(reducers)
		if err != nil {
			return err
		}
		suffix := "_r" + strconv.Itoa(reducers)
		m := newManager()
		fill(m, 1, reducers, outs)
		r := 0
		next := func() int { r = (r + 1) % reducers; return r }
		var blk rdd.ColBlock
		p.out["shuffle.reduce_view_us"+suffix] = p.fast("shuffle.reduce_view_us"+suffix, func() {
			v := m.ReduceInput(1, next())
			for i := 0; i < v.Len(); i++ {
				v.BlockInto(i, &blk)
			}
		}) / 1e3
		// Re-putting one map output moves the generation, so each of the
		// next calls recomputes its reduce partition's profile: the miss.
		m.PutMapOutput(1, 0, nodes[0], outs[0])
		p.out["shuffle.node_bytes_us"+suffix] = p.fast("shuffle.node_bytes_us"+suffix, func() {
			m.ReduceNodeBytes(1, next())
		}) / 1e3
		if reducers != 900 {
			continue
		}
		// With every profile cached: the placement query the scheduler
		// repeats per reduce task.
		for i := 0; i < reducers; i++ {
			m.ReduceNodeBytes(1, i)
		}
		p.out["shuffle.best_node_us_r900"] = p.fast("shuffle.best_node_us_r900", func() {
			m.BestReduceNode([]int{1}, next())
		}) / 1e3
		t := 0
		fresh := newManager()
		fresh.Register(1, shuffleMaps, reducers)
		p.out["shuffle.put_us_map"] = stats.P10(p.sample("shuffle.put_us_map", shuffleMaps, time.Second, func() {
			fresh.PutMapOutput(1, t, nodes[t%len(nodes)], outs[t%len(outs)])
			t++
		})) / 1e3
		root := p.tr.Start("probe:shuffle.retire_us", 0, 0)
		var retire []float64
		for i := 0; i < 30; i++ {
			m := newManager()
			for id := 1; id <= 4; id++ {
				fill(m, id, reducers, outs)
			}
			id := p.tr.Start("shuffle.retire_us", root, int64(i))
			t0 := time.Now()
			m.RetireExcept(nil)
			retire = append(retire, float64(time.Since(t0).Nanoseconds()))
			p.tr.End(id)
		}
		p.tr.End(root)
		p.out["shuffle.retire_us"] = stats.P10(retire) / 1e3
	}
	return nil
}

// execJob times whole jobs of one application on fresh sessions, and
// records the exact allocation volume and simulated seconds of one of them.
func (p *prober) execJob(label string, w workloads.Workload, force dag.StageConfigurator) error {
	var runErr error
	var sim float64
	run := func() {
		var opts []chopper.Option
		if force != nil {
			opts = append(opts, chopper.WithConfigurator(force))
		}
		sess := chopper.NewSession(opts...)
		if _, err := w.Run(sess.Context(), w.DefaultInputBytes()); err != nil {
			runErr = err
		}
		sim = sess.Elapsed()
	}
	p.out["exec.job_ms."+label] = p.slow("exec.job_ms."+label, 500*time.Millisecond, run) / 1e6
	if force == nil {
		p.out["exec.job_alloc_mb."+label] = float64(allocBytes(run)) / 1e6
		p.out["exec.sim_s."+label] = sim
	}
	p.ops.Check(runErr == nil)
	return runErr
}

// simclockLayer times the discrete-event clock: schedule 10^5 events at
// scattered times, then run them.
func (p *prober) simclockLayer() {
	const events = 100_000
	hits := 0
	ns := p.slow("simclock.event_ns", 400*time.Millisecond, func() {
		c := simclock.New()
		x := uint64(2463534242)
		for i := 0; i < events; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			c.Schedule(float64(x%1_000_000)/1e3, func() { hits++ })
		}
		c.Run()
	})
	p.out["simclock.event_ns"] = ns / events
	p.ops.Check(hits > 0 && hits%events == 0)
}
