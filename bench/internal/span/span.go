// Package span is the benchmark's in-memory tracer. Spans are recorded only
// from the benchmark's own files, around calls into each layer's public
// functions; nothing inside the program is instrumented. A nil *Recorder is
// valid and records nothing, so untraced runs pay one nil check per call.
package span

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Span is one timed interval. Parent is the ID of the span that caused it
// (0 for a root); Req groups the spans of one request or one round.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// rec is a Span as stored while recording: names are interned so the slice
// holds no pointers and the garbage collector never scans it — a traced
// serving round adds a thousand of these, and the daemon's heap is small.
type rec struct {
	parent, name   int32
	req            int64
	startNs, endNs int64
}

// Recorder accumulates spans in memory until WriteJSON.
type Recorder struct {
	mu     sync.Mutex
	t0     time.Time
	recs   []rec
	names  []string
	nameID map[string]int32
}

// New returns an empty recorder whose timestamps count from now.
func New() *Recorder { return &Recorder{t0: time.Now(), nameID: map[string]int32{}} }

// Start opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Start(name string, parent int, req int64) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.nameID[name]
	if !ok {
		id = int32(len(r.names))
		r.names = append(r.names, name)
		r.nameID[name] = id
	}
	r.recs = append(r.recs, rec{parent: int32(parent), name: id, req: req, startNs: now})
	return len(r.recs)
}

// End closes the span Start returned.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs[id-1].endNs = now
}

// Spans returns everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.recs))
	for i, c := range r.recs {
		out[i] = Span{ID: i + 1, Parent: int(c.parent), Req: c.req, Name: r.names[c.name], StartNs: c.startNs, EndNs: c.endNs}
	}
	return out
}

// WriteJSON writes the recorded spans to path.
func (r *Recorder) WriteJSON(path string) error {
	data, err := json.Marshal(r.Spans())
	if err != nil {
		return fmt.Errorf("span: marshal: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("span: write %s: %w", path, err)
	}
	return nil
}

// Times groups span durations and self times by name, in nanoseconds. A
// span's self time is its duration minus the duration of its direct
// children (children of one parent do not overlap here: the benchmark
// records them from one goroutine, or from a client that waits for the
// server). Unclosed spans are skipped.
func Times(spans []Span) (total, self map[string][]float64) {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.EndNs > 0 && s.Parent > 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	total, self = map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		if s.EndNs == 0 {
			continue
		}
		d := s.EndNs - s.StartNs
		total[s.Name] = append(total[s.Name], float64(d))
		self[s.Name] = append(self[s.Name], float64(d-child[s.ID]))
	}
	return total, self
}
