package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"chopper/api"
	"chopper/internal/metrics"
	"chopper/internal/profiling"
	"chopper/internal/workloads"
)

// httpError carries an HTTP status through the job layer to the handler.
type httpError struct {
	status int
	msg    string
}

// Error implements error.
func (e *httpError) Error() string { return e.msg }

// httpErrf builds an httpError.
func httpErrf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// statusWriter records the response code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader implements http.ResponseWriter.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// routes wires every endpoint family onto the mux.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.instrument("/v1/jobs", s.handleSubmit))
	s.mux.HandleFunc("POST /v1/train", s.instrument("/v1/train", s.handleTrain))
	s.mux.HandleFunc("GET /v1/recommend", s.instrument("/v1/recommend", s.handleRecommend))
	s.mux.HandleFunc("GET /v1/explain", s.instrument("/v1/explain", s.handleExplain))
	s.mux.HandleFunc("GET /v1/workloads", s.instrument("/v1/workloads", s.handleWorkloads))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	profiling.AttachPprof(s.mux, "/debug/pprof")
}

// instrument wraps a handler with the request counter and latency histogram,
// labeled by route and response code. The route's histogram is resolved here
// and each status code's counter on its first response, so a request touches
// no registry lock.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	latency := s.reg.Histogram("chopperd_http_seconds", "HTTP request latency by route", "path="+path)
	var byCode sync.Map // status code -> *metrics.Counter
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		c, ok := byCode.Load(sw.code)
		if !ok {
			c, _ = byCode.LoadOrStore(sw.code, s.reg.Counter("chopperd_http_requests_total",
				"HTTP requests by route and status", "path="+path, "code="+strconv.Itoa(sw.code)))
		}
		c.(*metrics.Counter).Inc()
		latency.Observe(time.Since(start).Seconds())
	}
}

// renderJSON is every JSON body's form: two-space indent, trailing newline.
// A value that does not encode renders as nil, an empty body after the
// status line, which is all the client can still be told.
func renderJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if enc.Encode(v) != nil {
		return nil
	}
	return buf.Bytes()
}

// writeJSON renders v and writes it with a status code.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	writeBody(w, status, renderJSON(v))
}

// writeBody writes an already rendered JSON body with a status code. It is
// one Write, so net/http sets Content-Length itself when the body fits its
// response buffer.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The client is gone if this fails; nothing useful to do with the error.
	_, _ = w.Write(body)
}

// writeError renders err as the api.Error body, mapping admission and job
// errors to their statuses (429 carries Retry-After).
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	body := api.Error{Status: http.StatusInternalServerError, Error: err.Error()}
	switch e := err.(type) {
	case *httpError:
		body.Status = e.status
	default:
		switch {
		case err == errQueueFull:
			body.Status = http.StatusTooManyRequests
		case err == errDraining:
			body.Status = http.StatusServiceUnavailable
		case r.Context().Err() != nil:
			body.Status = http.StatusGatewayTimeout
		}
	}
	if body.Status == http.StatusTooManyRequests {
		secs := math.Ceil(s.cfg.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(int(secs)))
		body.RetryAfterSeconds = secs
	}
	s.writeJSON(w, body.Status, body)
}

// runJob admits fn to the worker pool under the request deadline and waits
// for its result, mapping queue-full, draining, and timeout outcomes.
func (s *Server) runJob(w http.ResponseWriter, r *http.Request, timeoutSeconds float64, fn func(ctx context.Context) (any, error)) (any, bool) {
	if s.draining.Load() {
		s.writeError(w, r, errDraining)
		return nil, false
	}
	// A client may shorten its deadline but never extend it past the
	// server's JobTimeout, which bounds how long one request can pin a
	// worker (and so how long a graceful drain can take).
	d := s.cfg.JobTimeout
	if timeoutSeconds > 0 {
		if req := time.Duration(timeoutSeconds * float64(time.Second)); req < d {
			d = req
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	j := newJob(ctx, fn)
	if err := s.pool.submit(j); err != nil {
		s.writeError(w, r, err)
		return nil, false
	}
	select {
	case res := <-j.done:
		if res.err != nil {
			s.writeError(w, r, res.err)
			return nil, false
		}
		return res.v, true
	case <-ctx.Done():
		// The worker will still drain the job; its result lands in the
		// buffered done channel and is dropped.
		s.writeError(w, r, httpErrf(http.StatusGatewayTimeout, "service: job deadline exceeded: %v", ctx.Err()))
		return nil, false
	}
}

// rejectReadOnly refuses mutating requests on a replica, which serves the
// read family only; writes belong to the shard primary (the fleet router
// routes them there).
func (s *Server) rejectReadOnly(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.Role != "replica" {
		return false
	}
	s.writeError(w, r, httpErrf(http.StatusForbidden,
		"service: replica is read-only; send writes to the shard primary %s", s.cfg.PrimaryURL))
	return true
}

// decodeBody decodes the JSON request body into v, reading at most
// api.MaxRequestBytes of it: a longer body is a 413, malformed JSON or a
// field v does not have a 400.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		return httpErrf(http.StatusRequestEntityTooLarge, "service: %s body exceeds %d bytes", what, tooBig.Limit)
	}
	if err != nil {
		return httpErrf(http.StatusBadRequest, "service: bad %s body: %v", what, err)
	}
	return nil
}

// handleSubmit runs one workload job through a pooled session.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w, r) {
		return
	}
	var req api.SubmitRequest
	if err := decodeBody(w, r, "submit", &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := s.checkSizes(req.Workload, req.InputBytes, req.Shrink); err != nil {
		s.writeError(w, r, err)
		return
	}
	v, ok := s.runJob(w, r, req.TimeoutSeconds, func(ctx context.Context) (any, error) {
		return s.runSubmit(ctx, req)
	})
	if ok {
		s.writeJSON(w, http.StatusOK, v)
	}
}

// handleTrain runs incremental profiling for one workload.
func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w, r) {
		return
	}
	var req api.TrainRequest
	if err := decodeBody(w, r, "train", &req); err != nil {
		s.writeError(w, r, err)
		return
	}
	if err := s.checkTrain(req); err != nil {
		s.writeError(w, r, err)
		return
	}
	v, ok := s.runJob(w, r, req.TimeoutSeconds, func(ctx context.Context) (any, error) {
		return s.runTrain(ctx, req)
	})
	if ok {
		s.writeJSON(w, http.StatusOK, v)
	}
}

// workloadParams parses the ?workload= and ?inputBytes= query parameters
// shared by the read-only endpoints into the workload's plan slot and the
// input size (the workload's default when omitted).
func (s *Server) workloadParams(r *http.Request) (*planSlot, int64, error) {
	name := queryGet(r.URL.RawQuery, "workload")
	slot, ok := s.plans[name]
	if !ok {
		return nil, 0, httpErrf(http.StatusNotFound, "service: unknown workload %q", name)
	}
	bytes := slot.defaultBytes
	if raw := queryGet(r.URL.RawQuery, "inputBytes"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || n <= 0 {
			return nil, 0, httpErrf(http.StatusBadRequest, "service: bad inputBytes %q", raw)
		}
		bytes = n
	}
	return slot, bytes, nil
}

// queryGet is url.ParseQuery(raw).Get(key) without building the map: the
// value of the first pair whose key unescapes to key, skipping — as
// ParseQuery does — empty pairs, pairs holding a ';', and pairs whose key or
// value fails to unescape.
func queryGet(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, ok := queryUnescape(k); !ok || k != key {
			continue
		}
		if v, ok := queryUnescape(v); ok {
			return v
		}
	}
	return ""
}

// queryUnescape is url.QueryUnescape, returning s itself when it holds
// nothing to unescape.
func queryUnescape(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// handleRecommend answers the read-only tuning question. It runs entirely on
// the handler goroutine against the workload's plan entry — never through
// the worker pool — so recommendations stay fast while training runs, and
// schemes and counts always describe one DB generation. The body was
// rendered when the answer was first derived; a hit only writes it.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	slot, bytes, err := s.workloadParams(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	a, err := s.answer(slot, bytes)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	writeBody(w, http.StatusOK, a.body)
}

// handleExplain renders the optimizer's per-stage reasoning as text.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	slot, bytes, err := s.workloadParams(r)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	text, err := s.explain(slot, bytes)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprint(w, text)
}

// handleWorkloads lists the built-in workloads and their profile state.
func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	resp := api.WorkloadsResponse{}
	for _, wl := range workloads.AllWithExtensions() {
		name := wl.Name()
		resp.Workloads = append(resp.Workloads, api.WorkloadInfo{
			Name:              name,
			DefaultInputBytes: wl.DefaultInputBytes(),
			Runs:              s.db.RunCount(name),
			Samples:           s.db.SampleCount(name),
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleHealthz reports liveness and queue state.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := api.Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.cfg.Workers,
		QueueDepth:    s.pool.depth(),
		ActiveJobs:    s.pool.inflight(),
		QueueCap:      s.pool.cap(),
		Draining:      s.draining.Load(),
	}
	if h.Draining {
		h.Status = "draining"
	}
	if s.store != nil {
		h.StorePath = s.store.SnapshotPath()
		h.JournalRecords = s.store.JournalRecords()
	}
	h.Role = s.cfg.Role
	h.ShardID = s.cfg.ShardID
	h.ShardCount = s.cfg.ShardCount
	if s.repl != nil {
		st := s.repl.Status()
		h.ReplicationEpoch = st.Epoch
		h.ReplicationPos = st.Pos
		h.ReplicationLagBytes = st.LagBytes
		h.ReplicationSynced = st.Synced
		h.ReplicationError = st.LastErr
		// A replica that has never fully caught up is not ready for reads;
		// the fleet router keeps it out of the read path until "ok".
		if !st.Synced && h.Status == "ok" {
			h.Status = "syncing"
		}
	}
	s.writeJSON(w, http.StatusOK, h)
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		// Mid-stream failure: the client is gone; headers are already out.
		return
	}
}
