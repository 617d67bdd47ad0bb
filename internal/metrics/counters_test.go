package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("chopperd_requests_total", "requests", "path=/v1/recommend").Add(3)
	r.Counter("chopperd_requests_total", "requests", "path=/v1/jobs").Inc()
	r.Gauge("chopperd_queue_depth", "queued jobs").Set(2)
	h := r.Histogram("chopperd_job_seconds", "job latency", "kind=submit")
	h.Observe(0.0002)
	h.Observe(0.0002)
	h.Observe(50)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE chopperd_requests_total counter",
		`chopperd_requests_total{path="/v1/recommend"} 3`,
		`chopperd_requests_total{path="/v1/jobs"} 1`,
		"# TYPE chopperd_queue_depth gauge",
		"chopperd_queue_depth 2",
		"# TYPE chopperd_job_seconds histogram",
		`chopperd_job_seconds_bucket{kind="submit",le="0.0002"} 2`,
		`chopperd_job_seconds_bucket{kind="submit",le="+Inf"} 3`,
		`chopperd_job_seconds_count{kind="submit"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q in:\n%s", want, out)
		}
	}

	// Byte-stable across scrapes with no new observations.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Fatal("scrape output not byte-stable")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", got)
	}
	for i := 0; i < 99; i++ {
		h.Observe(0.001) // lands in the 0.0016 bucket
	}
	h.Observe(10) // tail
	if p50 := h.Quantile(0.5); p50 > 0.002 {
		t.Fatalf("p50 = %v, want <= 0.0016 bucket bound", p50)
	}
	if p99 := h.Quantile(0.99); p99 > 0.002 {
		t.Fatalf("p99 = %v, want within the dense bucket", p99)
	}
	if p100 := h.Quantile(1); p100 < 10 {
		t.Fatalf("p100 = %v, want >= 10", p100)
	}
	if h.Max() != 10 || h.Count() != 100 {
		t.Fatalf("Max/Count = %v/%d", h.Max(), h.Count())
	}
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c_total", "c").Inc()
				r.Gauge("g", "g").Add(1)
				r.Histogram("h_seconds", "h").Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "c").Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	if got := r.Histogram("h_seconds", "h").Count(); got != 4000 {
		t.Fatalf("histogram count = %d, want 4000", got)
	}
}

// The counter and histogram accessors below serve only these tests.

// Add adds n (n must be >= 0 for the Prometheus contract; not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Sum reports the total observed seconds.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}
