package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the exportable-counter side of the metrics package: process
// counters, gauges and latency histograms that a long-running service
// (chopperd) exposes in Prometheus text format, as opposed to the
// simulated-run collectors above. Everything here is safe for concurrent
// use and allocation-free on the hot observation paths.

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value reports the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets are the upper bounds (seconds) of the latency histogram:
// exponential from 100µs to ~104s, a span that covers both sub-millisecond
// recommend calls and multi-second training jobs.
var histBuckets = func() []float64 {
	out := make([]float64, 0, 21)
	for b := 100e-6; b < 120; b *= 2 {
		out = append(out, b)
	}
	return out
}()

// Histogram is a fixed-bucket latency histogram over seconds, rendered as
// a Prometheus histogram and queryable for approximate quantiles.
type Histogram struct {
	mu      sync.Mutex
	counts  []int64
	sum     float64
	total   int64
	maxSeen float64
}

// NewHistogram returns an empty latency histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, len(histBuckets)+1)}
}

// Observe records one duration in seconds.
func (h *Histogram) Observe(seconds float64) {
	i := sort.SearchFloat64s(histBuckets, seconds)
	h.mu.Lock()
	h.counts[i]++
	h.sum += seconds
	h.total++
	if seconds > h.maxSeen {
		h.maxSeen = seconds
	}
	h.mu.Unlock()
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Max reports the largest observation seen.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.maxSeen
}

// Quantile reports an upper bound for the q-quantile (0 < q <= 1) from the
// bucket boundaries: the smallest bucket bound whose cumulative count
// covers q, or Max for the overflow bucket. Zero observations yield 0.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(histBuckets) && histBuckets[i] < h.maxSeen {
				return histBuckets[i]
			}
			return h.maxSeen
		}
	}
	return h.maxSeen
}

// snapshot returns a consistent copy for rendering.
func (h *Histogram) snapshot() (counts []int64, sum float64, total int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.counts...), h.sum, h.total
}

// metricKind tags a registry family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// family is one named metric family with label-keyed series.
type family struct {
	name   string
	help   string
	kind   metricKind
	mu     sync.Mutex
	order  []string // label-set keys in first-registration order
	series map[string]any
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Families and series are created on first use and
// rendered in registration order, so scrapes are byte-stable for a fixed
// observation history.
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
	onScrape []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// OnScrape registers a callback run at the start of every WritePrometheus
// call — the place to refresh gauges derived from live state (queue depth,
// DB sample counts) right before rendering.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

// labelKey renders "k=v" pairs into a stable Prometheus label block.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		k, v, ok := strings.Cut(l, "=")
		if !ok {
			k, v = l, ""
		}
		parts[i] = fmt.Sprintf("%s=%q", k, v)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// withLabel re-renders a label block inserting an extra pair (histogram le).
func withLabel(key, extra string) string {
	if key == "" {
		return "{" + extra + "}"
	}
	return key[:len(key)-1] + "," + extra + "}"
}

// family returns (creating if needed) the named family of the given kind.
func (r *Registry) family(name, help string, kind metricKind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]any{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: family %s registered as two kinds", name))
	}
	return f
}

// seriesFor returns (creating via mk if needed) the series for the labels.
func (f *family) seriesFor(labels []string, mk func() any) any {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = mk()
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the counter for the family and label set ("k=v" pairs),
// creating both on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	f := r.family(name, help, kindCounter)
	return f.seriesFor(labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge for the family and label set.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	f := r.family(name, help, kindGauge)
	return f.seriesFor(labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram for the family and label set.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	f := r.family(name, help, kindHistogram)
	return f.seriesFor(labels, func() any { return NewHistogram() }).(*Histogram)
}

// fmtFloat renders a float the way Prometheus text format expects.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every family in text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	callbacks := append([]func(){}, r.onScrape...)
	r.mu.Unlock()
	// Callbacks run before the family list is snapshotted so gauges they
	// create on first scrape still render.
	for _, fn := range callbacks {
		fn()
	}
	r.mu.Lock()
	names := append([]string{}, r.order...)
	r.mu.Unlock()
	for _, name := range names {
		r.mu.Lock()
		f := r.families[name]
		r.mu.Unlock()
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

// write renders one family.
func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	keys := append([]string{}, f.order...)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.Unlock()

	typ := map[metricKind]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}[f.kind]
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, typ); err != nil {
		return err
	}
	for i, key := range keys {
		switch s := series[i].(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, key, s.Value()); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, key, s.Value()); err != nil {
				return err
			}
		case *Histogram:
			counts, sum, total := s.snapshot()
			var cum int64
			for bi, c := range counts {
				cum += c
				le := "+Inf"
				if bi < len(histBuckets) {
					le = fmtFloat(histBuckets[bi])
				}
				lk := withLabel(key, fmt.Sprintf("le=%q", le))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, lk, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, key, fmtFloat(sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, key, total); err != nil {
				return err
			}
		}
	}
	return nil
}
