// Package chopper is the public API of the CHOPPER reproduction: a
// Spark-like in-memory analytics engine running on a simulated
// (heterogeneous) cluster, plus the CHOPPER auto-partitioning system from
// "CHOPPER: Optimizing Data Partitioning for In-Memory Data Analytics
// Frameworks" (IEEE CLUSTER 2016).
//
// A Session wraps a driver context, DAG scheduler and executor over a
// cluster topology. Applications build RDD pipelines through the re-exported
// RDD API and run actions; every run yields full per-stage metrics.
// A Tuner profiles an application with lightweight test runs, fits the
// paper's per-stage cost models, and emits a workload configuration that a
// tuned Session applies dynamically — stage by stage — during execution.
//
//	sess := chopper.NewSession()                   // vanilla Spark behavior
//	data := sess.Generate("data", 0, 1<<30, gen)   // re-splittable source
//	sums := data.ReduceByKey(add, 0)
//	out, err := sums.Collect()
//
//	tuner := chopper.NewTuner()
//	cfg, err := tuner.Train(myApp)                 // offline test runs
//	tuned := chopper.NewSession(chopper.WithTuning(cfg))
package chopper

import (
	"sync"

	"chopper/internal/cluster"
	"chopper/internal/config"
	"chopper/internal/core"
	"chopper/internal/dag"
	"chopper/internal/exec"
	"chopper/internal/metrics"
	"chopper/internal/plan"
	"chopper/internal/plan/verify"
	"chopper/internal/rdd"
	"chopper/internal/trace"
)

// Re-exported core types: the RDD programming surface.
type (
	// RDD is a resilient distributed dataset.
	RDD = rdd.RDD
	// Row is a single record.
	Row = rdd.Row
	// Pair is a key-value record.
	Pair = rdd.Pair
	// Partitioner assigns pair keys to partitions.
	Partitioner = rdd.Partitioner
	// Aggregator describes combine semantics for shuffles.
	Aggregator = rdd.Aggregator
	// Topology is a simulated cluster.
	Topology = cluster.Topology
	// StageMetric is one executed stage's record.
	StageMetric = metrics.StageMetric
	// JoinedValue is the value type produced by RDD.Join.
	JoinedValue = rdd.JoinedValue
	// ConfigFile is a CHOPPER workload configuration (paper Fig. 6).
	ConfigFile = config.File
	// WorkloadDB is CHOPPER's statistics database.
	WorkloadDB = core.DB
)

// NewHashPartitioner returns Spark's default partitioner over n partitions.
func NewHashPartitioner(n int) Partitioner { return rdd.NewHashPartitioner(n) }

// NewRangePartitioner builds a range partitioner from a key sample.
func NewRangePartitioner(n int, sample []any) Partitioner {
	return rdd.NewRangePartitionerFromSample(n, sample)
}

// UniformCluster returns a homogeneous n-worker cluster.
func UniformCluster(n, cores int, speedGHz float64) *Topology {
	return cluster.UniformCluster(n, cores, speedGHz)
}

// Option configures a Session.
type Option func(*sessionConfig)

type sessionConfig struct {
	topo        *cluster.Topology
	parallelism int
	mode        string
	coPartition bool
	cfg         dag.StageConfigurator
}

// WithTopology selects the simulated cluster (default: the paper cluster).
func WithTopology(t *Topology) Option { return func(c *sessionConfig) { c.topo = t } }

// WithDefaultParallelism sets spark.default.parallelism (default 300, the
// paper's vanilla configuration).
func WithDefaultParallelism(n int) Option { return func(c *sessionConfig) { c.parallelism = n } }

// WithTuning applies a generated CHOPPER configuration and enables the
// co-partition-aware scheduler extensions.
func WithTuning(f *ConfigFile) Option {
	return func(c *sessionConfig) {
		c.cfg = &config.Static{F: f}
		c.coPartition = true
		c.mode = "chopper"
	}
}

// WithDynamicTuning is WithTuning backed by a configuration file path that
// is re-read before every job, enabling the paper's dynamic updates.
func WithDynamicTuning(path string) Option {
	return func(c *sessionConfig) {
		c.cfg = config.NewDynamic(path)
		c.coPartition = true
		c.mode = "chopper"
	}
}

// Session is a driver connected to a simulated cluster. It verifies every
// job's stage graph right after configuration is applied (acyclicity,
// shuffle boundaries at wide deps, co-partitioned joins, partition counts
// within the executors' memory budget, partitioner/key-type compatibility)
// and aborts the job on any breach.
type Session struct {
	opts []Option
	ctx  *rdd.Context
	eng  *exec.Engine
	sch  *dag.Scheduler
	col  *metrics.Collector
	rec  *core.Recorder
}

// NewSession creates a fresh cluster and driver.
func NewSession(opts ...Option) *Session {
	s := &Session{opts: opts}
	s.Reset()
	return s
}

// Reset rebuilds the session — cluster, engine, scheduler, metrics
// collector, recorder — from its original options plus extra, returning it
// to the state NewSession left it in: caches cleared, simulated clock at
// zero, no recorded stages. It is the reuse hook behind SessionPool: a
// long-running service resets a pooled session per job instead of paying
// NewSession's option plumbing twice.
//
// One caveat: options that capture pointers (WithTopology, WithConfigurator)
// re-apply the same captured object on every Reset, so a WithTopology
// session shares — and keeps — that topology's state across resets. The
// default paper cluster is rebuilt fresh each time.
func (s *Session) Reset(extra ...Option) {
	sc := sessionConfig{
		topo:        cluster.PaperCluster(),
		parallelism: 300,
		mode:        "spark",
	}
	for _, o := range s.opts {
		o(&sc)
	}
	for _, o := range extra {
		o(&sc)
	}
	ctx := rdd.NewContext(sc.parallelism)
	col := metrics.NewCollector("session", sc.mode)
	eng := exec.New(sc.topo, cluster.DefaultCostParams(), ctx, col, sc.coPartition)
	sch := dag.NewScheduler(ctx, eng)
	sch.Configurator = sc.cfg
	rec := core.NewRecorder()
	sch.OnJob = rec.OnJob
	sch.Verify = verify.Hook(verify.DefaultLimits(sc.topo))
	s.ctx, s.eng, s.sch, s.col, s.rec = ctx, eng, sch, col, rec
}

// SessionPool recycles Sessions across jobs for a long-running driver
// (chopperd): Acquire hands out a freshly Reset session built from the
// pool's base options plus any per-job extras (e.g. WithTuning), Release
// returns it for reuse. Safe for concurrent use; the pool never blocks —
// it creates a new session when none is free, and callers bound
// concurrency themselves (chopperd's worker pool does).
type SessionPool struct {
	mu   sync.Mutex
	opts []Option
	free []*Session
}

// NewSessionPool returns a pool whose sessions are built from opts.
func NewSessionPool(opts ...Option) *SessionPool {
	return &SessionPool{opts: opts}
}

// Acquire returns a session in post-NewSession state, configured with the
// pool's options plus extra.
func (p *SessionPool) Acquire(extra ...Option) *Session {
	p.mu.Lock()
	var s *Session
	if n := len(p.free); n > 0 {
		s, p.free = p.free[n-1], p.free[:n-1]
	}
	p.mu.Unlock()
	if s == nil {
		s = &Session{opts: p.opts}
	}
	s.Reset(extra...)
	return s
}

// Release returns a session to the pool. The session must not be used
// again by the caller; its accumulated state is discarded on next Acquire.
func (p *SessionPool) Release(s *Session) {
	if s == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}

// Context exposes the underlying RDD context for advanced use.
func (s *Session) Context() *rdd.Context { return s.ctx }

// Parallelize distributes rows over n partitions (n <= 0: default).
func (s *Session) Parallelize(rows []Row, n int) *RDD { return s.ctx.Parallelize(rows, n) }

// Generate creates a re-splittable source of logicalBytes logical bytes;
// gen must be deterministic and split-count independent. n <= 0 leaves the
// source tunable by the optimizer.
func (s *Session) Generate(name string, n int, logicalBytes int64, gen func(split, total int) []Row) *RDD {
	return s.ctx.Generate(name, n, logicalBytes, gen)
}

// SetLogicalScale maps physical row bytes to logical bytes (laptop-size
// data standing in for production-size inputs).
func (s *Session) SetLogicalScale(scale float64) { s.ctx.LogicalScale = scale }

// Elapsed reports the simulated time consumed so far, in seconds.
func (s *Session) Elapsed() float64 { return s.eng.Now() }

// Stages reports the per-stage metrics of everything run so far.
func (s *Session) Stages() []*StageMetric { return s.col.Stages() }

// Metrics exposes the full collector (utilization series, task records).
func (s *Session) Metrics() *metrics.Collector { return s.col }

// Topology reports the session's cluster.
func (s *Session) Topology() *Topology { return s.eng.Topo }

// harvest records this session's observations into a workload DB.
func (s *Session) harvest(db *core.DB, workload string, inputBytes float64, isDefault bool) {
	s.rec.Harvest(db, workload, inputBytes, s.col, isDefault)
}

// WithConfigurator attaches an arbitrary stage configurator (advanced use:
// uniform force-all sweeps, custom tuning policies). It does not enable the
// co-partition-aware scheduler; combine with WithTuning for that.
func WithConfigurator(cfg dag.StageConfigurator) Option {
	return func(c *sessionConfig) { c.cfg = cfg }
}

// KillNode fails a worker at the current simulated time: it stops receiving
// tasks and its cached partitions are lost (recomputed from lineage on next
// use) — the paper's future-work fault scenario.
func (s *Session) KillNode(name string) error { return s.eng.KillNode(name) }

// AliveWorkers reports the workers still accepting tasks.
func (s *Session) AliveWorkers() []string { return s.eng.AliveWorkers() }

// Trace exports everything run so far as an event log (Spark event-log
// analogue) for inspection and Gantt rendering.
func (s *Session) Trace(includeTasks bool) *trace.Log {
	return trace.FromCollector(s.col, includeTasks)
}

// Explain renders an RDD's lineage as a text tree with stage boundaries —
// the analogue of Spark's explain().
func Explain(r *RDD) string { return plan.Tree(r) }

// ExplainDOT renders an RDD's lineage as a Graphviz digraph.
func ExplainDOT(r *RDD, name string) string { return plan.DOT(r, name) }
