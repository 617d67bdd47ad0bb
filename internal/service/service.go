// Package service implements chopperd, the tuning-as-a-service daemon: a
// long-running HTTP/JSON server that owns a shared, durably persisted
// workload database (core.DB + core.Store) and serves four endpoint
// families — submit-job, train, recommend/explain, and ops (/healthz,
// /metrics, /debug/pprof). See api for the wire types and DESIGN.md §9 for
// the serving architecture.
//
// Concurrency shape: HTTP handlers are the only producers; writes (submit,
// train) are admitted to a bounded worker pool (queue full → 429 with
// Retry-After), while reads (recommend, explain, workloads) run directly on
// the handler against a per-workload plan entry (plan.go) cut from one DB
// generation, so they never queue behind — or block — training. The DB itself is single-writer/multi-reader
// (core.DB's locking contract); durability is an append-only journal of
// observations plus an atomic snapshot written on graceful shutdown.
package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chopper"
	"chopper/api"
	"chopper/internal/core"
	"chopper/internal/fleet"
	"chopper/internal/metrics"
	"chopper/internal/plan/verify"
	"chopper/internal/session"
	"chopper/internal/workloads"
)

// Config shapes a Server.
type Config struct {
	// StorePath is the durable profile store base path (snapshot at the
	// path, journal at path+".journal"). Empty runs in-memory only.
	StorePath string
	// Workers is the job worker-pool size (default max(2, NumCPU)).
	Workers int
	// QueueDepth caps the admitted-but-unstarted job queue (default 128).
	QueueDepth int
	// Shrink is the default physical-dataset shrink factor for job and
	// training runs (default 12; logical sizes are unaffected).
	Shrink int
	// JobTimeout is the default per-request deadline covering queue wait
	// plus execution, and the upper bound client-supplied TimeoutSeconds
	// values are clamped to (default 5m).
	JobTimeout time.Duration
	// RetryAfter is the backoff hint attached to 429 responses (default 1s).
	RetryAfter time.Duration
	// SessionOptions configure every pooled session (cluster, parallelism).
	SessionOptions []chopper.Option
	// SyncAppends controls journal fsync per observation (default true);
	// benchmarks may disable it.
	SyncAppends *bool
	// Role selects the fleet role: "" (standalone), "primary" (owns one
	// shard's writes and serves the replication stream), or "replica"
	// (read-only; converges on PrimaryURL's journal). See internal/fleet.
	Role string
	// ShardID and ShardCount locate the daemon in the fleet hash ring;
	// reported in /healthz — routing itself lives in the fleet router.
	ShardID    int
	ShardCount int
	// PrimaryURL is the shard primary a replica pulls from (replicas only).
	PrimaryURL string
	// ReplPoll is the replica's idle poll interval (default 200ms).
	ReplPoll time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
		if c.Workers < 2 {
			c.Workers = 2
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.Shrink <= 0 {
		c.Shrink = 12
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server is the chopperd daemon.
type Server struct {
	cfg      Config
	db       *core.DB
	store    *core.Store // nil when in-memory
	pool     *workPool
	sessions *chopper.SessionPool
	reg      *metrics.Registry
	mux      *http.ServeMux
	http     *http.Server
	start    time.Time
	draining atomic.Bool

	// plans is the read path: each built-in workload's slot (plan.go); the
	// map is fixed at New. The three counters are chopperd_plan_cache_total's
	// series.
	plans                          map[string]*planSlot
	planHit, planMiss, planRebuild *metrics.Counter

	// maxPartitions bounds a train request's partition counts: the plan
	// verifier's limit on the daemon's cluster, at most api.MaxPartitions.
	maxPartitions int

	// repl is the journal puller (replica role only); replStop ends its
	// loop, once.
	repl         *fleet.Replicator
	replStop     chan struct{}
	replStopOnce sync.Once

	// serveOnce guards against double Serve, shutdownOnce against double
	// store teardown. shutdownDone closes when Shutdown returns; Serve
	// waits on it (when draining) so the process cannot exit between a
	// job finishing and its handler flushing the response to the client.
	serveOnce        sync.Once
	shutdownOnce     sync.Once
	shutdownDone     chan struct{}
	shutdownDoneOnce sync.Once
}

// New builds a server: opens (and replays) the durable store when
// configured, then wires the endpoint mux. The daemon does not accept
// traffic until Serve.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	switch cfg.Role {
	case "", "primary", "replica":
	default:
		return nil, fmt.Errorf("service: unknown role %q (want primary, replica, or empty)", cfg.Role)
	}
	if cfg.Role == "replica" && (cfg.StorePath == "" || cfg.PrimaryURL == "") {
		return nil, fmt.Errorf("service: replica role needs -store and -primary")
	}
	s := &Server{
		cfg:          cfg,
		db:           core.NewDB(),
		pool:         newWorkPool(cfg.Workers, cfg.QueueDepth),
		sessions:     chopper.NewSessionPool(cfg.SessionOptions...),
		reg:          metrics.NewRegistry(),
		start:        time.Now(),
		shutdownDone: make(chan struct{}),
		plans:        map[string]*planSlot{},
	}
	const cacheHelp = "config lookups answered from the plan entry (hit) or by an optimizer pass (miss), and entries re-cloned because the workload generation moved (rebuild)"
	s.planHit = s.reg.Counter("chopperd_plan_cache_total", cacheHelp, "result=hit")
	s.planMiss = s.reg.Counter("chopperd_plan_cache_total", cacheHelp, "result=miss")
	s.planRebuild = s.reg.Counter("chopperd_plan_cache_total", cacheHelp, "result=rebuild")
	for _, w := range workloads.AllWithExtensions() {
		s.plans[w.Name()] = &planSlot{name: w.Name(), defaultBytes: w.DefaultInputBytes()}
	}
	sc := session.Defaults()
	for _, o := range cfg.SessionOptions {
		o(&sc)
	}
	s.maxPartitions = min(api.MaxPartitions, verify.DefaultLimits(sc.Topo).MaxPartitions)
	if cfg.StorePath != "" {
		store, db, err := core.OpenStore(cfg.StorePath)
		if err != nil {
			return nil, fmt.Errorf("service: open store: %w", err)
		}
		if cfg.SyncAppends != nil {
			store.SyncAppends = *cfg.SyncAppends
		}
		// A replica's journal is the shipped copy of the primary's stream:
		// the replicator appends raw bytes itself, so the store must NOT
		// also observe DB mutations — that would journal every applied
		// record twice and fork the byte-prefix invariant.
		if cfg.Role != "replica" {
			store.Attach(db)
		}
		s.store, s.db = store, db
	}
	if cfg.Role == "replica" {
		repl, err := fleet.NewReplicator(fleet.ReplicatorConfig{
			PrimaryURL: cfg.PrimaryURL,
			Store:      s.store,
			DB:         s.db,
			Poll:       cfg.ReplPoll,
		})
		if err != nil {
			return nil, fmt.Errorf("service: build replicator: %w", err)
		}
		s.repl = repl
		s.replStop = make(chan struct{})
	}
	s.mux = http.NewServeMux()
	s.routes()
	// Any daemon with a durable store can feed replicas; a replica itself
	// must not re-export the stream it is still converging on.
	if s.store != nil && cfg.Role != "replica" {
		fleet.RegisterRepl(s.mux, s.store)
	}
	s.registerGauges()
	s.http = &http.Server{Handler: s.mux}
	return s, nil
}

// Handler exposes the endpoint mux (in-process benchmarks and tests).
func (s *Server) Handler() http.Handler { return s.mux }

// registerGauges wires the scrape-time gauges: live state sampled right
// before every /metrics render.
func (s *Server) registerGauges() {
	s.reg.OnScrape(func() {
		s.reg.Gauge("chopperd_queue_depth", "jobs admitted but not yet started").Set(int64(s.pool.depth()))
		s.reg.Gauge("chopperd_active_jobs", "jobs currently executing on a worker").Set(int64(s.pool.inflight()))
		s.reg.Gauge("chopperd_queue_capacity", "admission-control queue cap").Set(int64(s.pool.cap()))
		s.reg.Gauge("chopperd_workers", "job worker-pool size").Set(int64(s.cfg.Workers))
		s.reg.Gauge("chopperd_uptime_seconds", "seconds since process start").Set(int64(time.Since(s.start).Seconds()))
		s.reg.Gauge("chopperd_goroutines", "live goroutines").Set(int64(runtime.NumGoroutine()))
		for _, w := range workloads.AllWithExtensions() {
			name := w.Name()
			s.reg.Gauge("chopperd_db_samples", "profile-store observations", "workload="+name).Set(int64(s.db.SampleCount(name)))
			s.reg.Gauge("chopperd_db_runs", "profile-store recorded runs", "workload="+name).Set(int64(s.db.RunCount(name)))
			if e := s.plans[name].entry.Load(); e != nil {
				s.reg.Gauge("chopperd_plan_generation", "DB generation (process-local) the workload's published plan entry was cut from", "workload="+name).Set(int64(e.gen))
			}
		}
		if s.store != nil {
			s.reg.Gauge("chopperd_journal_records", "observations not yet covered by a snapshot").Set(int64(s.store.JournalRecords()))
		}
		if s.repl != nil {
			st := s.repl.Status()
			s.reg.Gauge("chopperd_replication_lag_bytes", "journal bytes the replica is behind its primary").Set(st.LagBytes)
			s.reg.Gauge("chopperd_replication_pos_bytes", "replica position in the primary journal stream").Set(st.Pos)
			s.reg.Gauge("chopperd_replication_epoch", "journal stream epoch the replica is on").Set(st.Epoch)
		}
	})
}

// Listen opens a TCP listener on addr (":0" for an ephemeral port).
func (s *Server) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("service: listen %s: %w", addr, err)
	}
	return ln, nil
}

// Serve runs the daemon on ln until Shutdown, then completes the drain:
// the worker pool finishes every admitted job, the final snapshot is
// written, and the store is closed. It returns nil after a clean
// shutdown-and-drain.
func (s *Server) Serve(ln net.Listener) error {
	started := false
	s.serveOnce.Do(func() { started = true })
	if !started {
		return errors.New("service: Serve called twice")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.pool.run()
	}()
	if s.repl != nil {
		wg.Add(1)
		//lint:ignore journalorder replication pull loop, not a request-ack path; journal appends here precede the replica's durable-position advance, and the goroutine is barriered by wg.Wait below
		go func() {
			defer wg.Done()
			s.repl.Run(s.replStop)
		}()
	}
	err := s.http.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	// Shutdown has stopped admission and closed the pool once in-flight
	// handlers returned; on the error path (Serve failed outright) close
	// it here so the workers exit. Either way, wait for the drain.
	s.pool.close()
	s.stopRepl()
	wg.Wait()
	// The pool draining is not the whole drain: handlers that admitted
	// those jobs may still be writing their responses, and only Shutdown's
	// http.Shutdown waits for them. Block until it returns, so a caller
	// exiting the process when Serve returns can never cut off an
	// acknowledged in-flight response mid-write.
	if s.draining.Load() {
		<-s.shutdownDone
	}
	if ferr := s.finalizeStore(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// finalizeStore writes the final snapshot and closes the journal (once).
// A replica only closes: its journal is a byte-identical prefix of the
// primary's stream, and a local snapshot would truncate it (and bump the
// epoch), discarding the position the next start resumes pulling from.
func (s *Server) finalizeStore() error {
	var err error
	s.shutdownOnce.Do(func() {
		if s.store == nil {
			return
		}
		if s.repl == nil {
			if serr := s.store.Snapshot(s.db); serr != nil {
				err = fmt.Errorf("service: final snapshot: %w", serr)
				return
			}
		}
		if cerr := s.store.Close(); cerr != nil {
			err = fmt.Errorf("service: close store: %w", cerr)
		}
	})
	return err
}

// stopRepl ends the replication pull loop (once; no-op off-replica).
func (s *Server) stopRepl() {
	if s.repl == nil {
		return
	}
	s.replStopOnce.Do(func() { close(s.replStop) })
}

// Shutdown gracefully stops the daemon: admission is cut (new jobs get
// 503), in-flight handlers — and the jobs they wait on — are given until
// ctx expires, then the listener closes and Serve finishes the drain and
// snapshot. Safe to call from a signal handler while Serve blocks.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	defer s.shutdownDoneOnce.Do(func() { close(s.shutdownDone) })
	err := s.http.Shutdown(ctx)
	s.pool.close()
	s.stopRepl()
	return err
}
