package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"chopper/api"
)

// RouterConfig shapes a Router.
type RouterConfig struct {
	Topology Topology
	// Client forwards application requests (default: 5m timeout, matching
	// the daemon's job deadline so long trains are not cut mid-flight).
	Client *http.Client
	// ProbeClient performs health probes and metrics scrapes (default: 2s
	// timeout — a hung backend must not stall the prober).
	ProbeClient *http.Client
	// ProbeInterval is the health-probe period (default 250ms).
	ProbeInterval time.Duration
	// WriteRetries is how many extra attempts a write gets after a
	// transport-level failure (default 2). API-level errors are never
	// retried — they are the backend's answer.
	WriteRetries int
}

// backendState is the router's last known view of one backend. Value
// semantics: reads under the mutex copy it out.
type backendState struct {
	live  bool // transport reachable
	ready bool // serving reads (replica: synced)
}

// Router is the fleet's HTTP front: it computes the owning shard per
// request, fans writes to that shard's primary and reads to any caught-up
// replica (primary as fallback), tracks per-backend health, and serves
// merged /v1/workloads, aggregated /metrics, and a fleet-level /healthz.
// It owns no goroutines: Run is a blocking probe loop the caller spawns
// under its own barrier.
type Router struct {
	cfg RouterConfig
	mux *http.ServeMux

	mu    sync.Mutex
	state map[string]backendState
	rr    []int // per-shard replica rotation cursor
}

// NewRouter builds a router over a validated topology. Primaries start
// live+ready (a transport failure demotes them); replicas start not-ready
// until the first probe confirms they are synced, so reads never land on a
// replica still catching up.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Minute}
	}
	if cfg.ProbeClient == nil {
		cfg.ProbeClient = &http.Client{Timeout: 2 * time.Second}
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.WriteRetries < 0 {
		cfg.WriteRetries = 0
	} else if cfg.WriteRetries == 0 {
		cfg.WriteRetries = 2
	}
	r := &Router{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		state: map[string]backendState{},
		rr:    make([]int, len(cfg.Topology.Shards)),
	}
	for _, sh := range cfg.Topology.Shards {
		r.state[sh.Primary] = backendState{live: true, ready: true}
		for _, rep := range sh.Replicas {
			r.state[rep] = backendState{live: true, ready: false}
		}
	}
	r.mux.HandleFunc("POST /v1/jobs", r.handleWrite)
	r.mux.HandleFunc("POST /v1/train", r.handleWrite)
	r.mux.HandleFunc("GET /v1/recommend", r.handleRead)
	r.mux.HandleFunc("GET /v1/explain", r.handleRead)
	r.mux.HandleFunc("GET /v1/workloads", r.handleWorkloads)
	r.mux.HandleFunc("GET /metrics", r.handleMetrics)
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	return r, nil
}

// Handler exposes the routing mux.
func (r *Router) Handler() http.Handler { return r.mux }

// Run probes every backend until stop closes. Blocking — the caller spawns
// it on a goroutine joined by its own WaitGroup.
func (r *Router) Run(stop <-chan struct{}) {
	for {
		r.probeAll()
		select {
		case <-stop:
			return
		case <-time.After(r.cfg.ProbeInterval):
		}
	}
}

// probeAll refreshes the health view of every backend, sequentially (the
// probe client's short timeout bounds a full sweep).
func (r *Router) probeAll() {
	for _, sh := range r.cfg.Topology.Shards {
		r.setProbe(sh.Primary, r.probe(sh.Primary))
		for _, rep := range sh.Replicas {
			r.setProbe(rep, r.probe(rep))
		}
	}
}

// probe checks one backend's /healthz. Ready means "serving reads": status
// "ok" — a replica reports "syncing" until its first full catch-up, and a
// draining daemon reports "draining"; neither should receive new reads.
func (r *Router) probe(backend string) backendState {
	resp, err := r.cfg.ProbeClient.Get(backend + "/healthz")
	if err != nil {
		return backendState{}
	}
	defer func() { _ = resp.Body.Close() }() // body fully read below
	var h api.Health
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil {
		return backendState{}
	}
	return backendState{live: true, ready: h.Status == "ok"}
}

// handleWrite forwards a mutating request to the owning shard's primary,
// with bounded retries on transport-level failures.
func (r *Router) handleWrite(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, api.MaxRequestBytes))
	if err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		r.writeError(w, status, fmt.Sprintf("fleet: read request body: %v", err))
		return
	}
	var probe struct {
		Workload string `json:"workload"`
	}
	if err := json.Unmarshal(body, &probe); err != nil || probe.Workload == "" {
		r.writeError(w, http.StatusBadRequest, "fleet: request body has no workload")
		return
	}
	shard := ShardFor(probe.Workload, len(r.cfg.Topology.Shards))
	primary := r.cfg.Topology.Shards[shard].Primary
	var lastErr error
	for attempt := 0; attempt <= r.cfg.WriteRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(50 * time.Millisecond)
		}
		resp, err := r.forward(req, primary, body)
		if err != nil {
			r.markDead(primary)
			lastErr = err
			continue
		}
		r.markLive(primary)
		copyResponse(w, resp)
		return
	}
	r.writeError(w, http.StatusBadGateway, fmt.Sprintf("fleet: shard %d primary unreachable: %v", shard, lastErr))
}

// handleRead forwards a read to the owning shard: caught-up replicas first
// (rotating among them), the primary as the final fallback. A backend that
// fails at the transport level is marked dead and the next candidate tried,
// so a killed replica costs one internal retry, not a client-visible error.
func (r *Router) handleRead(w http.ResponseWriter, req *http.Request) {
	shard := ShardFor(req.URL.Query().Get("workload"), len(r.cfg.Topology.Shards))
	var lastErr error
	for _, backend := range r.readCandidates(shard) {
		resp, err := r.forward(req, backend, nil)
		if err != nil {
			r.markDead(backend)
			lastErr = err
			continue
		}
		r.markLive(backend)
		copyResponse(w, resp)
		return
	}
	r.writeError(w, http.StatusBadGateway, fmt.Sprintf("fleet: shard %d has no reachable backend: %v", shard, lastErr))
}

// handleWorkloads merges the fleet view: every backend lists the same
// workload catalogue, but only the owning shard's run/sample counts are
// authoritative, so each entry is taken from its owner.
func (r *Router) handleWorkloads(w http.ResponseWriter, req *http.Request) {
	n := len(r.cfg.Topology.Shards)
	perShard := make([]map[string]api.WorkloadInfo, n)
	var order []string
	for shard := 0; shard < n; shard++ {
		var resp api.WorkloadsResponse
		if err := r.readJSON(shard, "/v1/workloads", &resp); err != nil {
			r.writeError(w, http.StatusBadGateway, fmt.Sprintf("fleet: shard %d workloads: %v", shard, err))
			return
		}
		perShard[shard] = make(map[string]api.WorkloadInfo, len(resp.Workloads))
		for _, info := range resp.Workloads {
			perShard[shard][info.Name] = info
			if shard == 0 {
				order = append(order, info.Name)
			}
		}
	}
	merged := api.WorkloadsResponse{}
	for _, name := range order {
		owner := ShardFor(name, n)
		if info, ok := perShard[owner][name]; ok {
			merged.Workloads = append(merged.Workloads, info)
		}
	}
	r.writeJSON(w, http.StatusOK, merged)
}

// readJSON performs a failover read against shard and decodes the JSON body.
func (r *Router) readJSON(shard int, path string, v any) error {
	var lastErr error
	for _, backend := range r.readCandidates(shard) {
		resp, err := r.cfg.ProbeClient.Get(backend + path)
		if err != nil {
			r.markDead(backend)
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			_ = resp.Body.Close() // error status; body irrelevant
			lastErr = fmt.Errorf("%s: %s", backend, resp.Status)
			continue
		}
		r.markLive(backend)
		err = json.NewDecoder(resp.Body).Decode(v)
		_ = resp.Body.Close() // decoded (or failed) above; nothing more to read
		if err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}

// handleMetrics aggregates every reachable backend's Prometheus exposition,
// relabeled with backend="<url>", prefixed by the router's own liveness
// gauges.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var buf bytes.Buffer
	buf.WriteString("# HELP chopperrouter_backend_live backend reachability as seen by the fleet router\n")
	buf.WriteString("# TYPE chopperrouter_backend_live gauge\n")
	health := r.healthView()
	for _, sh := range health.Shards {
		for _, b := range sh.Backends {
			live := 0
			if b.Live {
				live = 1
			}
			fmt.Fprintf(&buf, "chopperrouter_backend_live{backend=%q,shard=\"%d\",role=%q} %d\n", b.URL, sh.Shard, b.Role, live)
		}
	}
	var sources []metricsSource
	for _, sh := range r.cfg.Topology.Shards {
		for _, backend := range append([]string{sh.Primary}, sh.Replicas...) {
			resp, err := r.cfg.ProbeClient.Get(backend + "/metrics")
			if err != nil {
				r.markDead(backend)
				continue
			}
			body, rerr := io.ReadAll(resp.Body)
			_ = resp.Body.Close() // fully read above
			if rerr != nil || resp.StatusCode != http.StatusOK {
				continue
			}
			sources = append(sources, metricsSource{Backend: backend, Body: body})
		}
	}
	buf.Write(mergeMetrics(sources))
	_, _ = w.Write(buf.Bytes()) // client gone if this fails
}

// handleHealthz reports the fleet summary.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	r.writeJSON(w, http.StatusOK, r.healthView())
}

// healthView snapshots the per-backend state into the wire shape.
func (r *Router) healthView() api.RouterHealth {
	out := api.RouterHealth{Status: "ok"}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, sh := range r.cfg.Topology.Shards {
		shard := api.RouterShardHealth{Shard: i}
		pst := r.state[sh.Primary]
		shard.Backends = append(shard.Backends, api.BackendHealth{
			URL: sh.Primary, Role: "primary", Live: pst.live, Ready: pst.ready,
		})
		if !pst.live {
			out.Status = "degraded"
		}
		for _, rep := range sh.Replicas {
			rst := r.state[rep]
			shard.Backends = append(shard.Backends, api.BackendHealth{
				URL: rep, Role: "replica", Live: rst.live, Ready: rst.ready,
			})
		}
		out.Shards = append(out.Shards, shard)
	}
	return out
}

// readCandidates orders shard's backends for a read: ready replicas
// (rotated so load spreads), then the primary as last resort — even when
// marked dead, because a probe may simply not have noticed a recovery yet.
func (r *Router) readCandidates(shard int) []string {
	sh := r.cfg.Topology.Shards[shard]
	r.mu.Lock()
	defer r.mu.Unlock()
	var reps []string
	for _, rep := range sh.Replicas {
		if st := r.state[rep]; st.live && st.ready {
			reps = append(reps, rep)
		}
	}
	out := make([]string, 0, len(reps)+1)
	if len(reps) > 0 {
		k := r.rr[shard] % len(reps)
		r.rr[shard]++
		out = append(out, reps[k:]...)
		out = append(out, reps[:k]...)
	}
	return append(out, sh.Primary)
}

// forward re-issues req against backend, with body replacing the original
// (nil for body-less methods).
func (r *Router) forward(req *http.Request, backend string, body []byte) (*http.Response, error) {
	u := backend + req.URL.Path
	if req.URL.RawQuery != "" {
		u += "?" + req.URL.RawQuery
	}
	out, err := http.NewRequestWithContext(req.Context(), req.Method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := req.Header.Get("Content-Type"); ct != "" {
		out.Header.Set("Content-Type", ct)
	}
	return r.cfg.Client.Do(out)
}

// copyResponse relays a backend response verbatim: status, content type,
// rate-limit hint, body.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer func() { _ = resp.Body.Close() }() // body fully copied below
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body) // client gone if this fails
}

// markDead records a transport-level failure against backend.
func (r *Router) markDead(backend string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state[backend] = backendState{}
}

// markLive records a successful exchange with backend. Readiness is left to
// the prober: a write succeeding against a syncing replica's primary says
// nothing about read readiness.
func (r *Router) markLive(backend string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state[backend]
	st.live = true
	r.state[backend] = st
}

// setProbe installs a probe result.
func (r *Router) setProbe(backend string, st backendState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state[backend] = st
}

// writeJSON renders v with a status code.
func (r *Router) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client gone if this fails
}

// writeError renders the shared api.Error body.
func (r *Router) writeError(w http.ResponseWriter, status int, msg string) {
	r.writeJSON(w, status, api.Error{Status: status, Error: msg})
}
