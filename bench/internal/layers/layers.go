// Package layers is the traced run's outside-in layer table: one or more
// probes per module, each timing calls into that module's public functions
// with inputs replayed from the real workloads (rows from a real map task,
// observations harvested from a real session, the trained fixture store).
// Spans are recorded here, in the benchmark's files, never inside the
// program. A probe's value is the first decile over its calls: at least
// 200 calls where one call is well under a millisecond, otherwise as many
// as fit the probe's budget (never fewer than three). Values marked exact
// are counts or simulated quantities that repeat bit for bit.
package layers

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"chopper/bench/internal/harness"
	"chopper/bench/internal/span"
	"chopper/bench/internal/stats"
)

// prober accumulates the layer table.
type prober struct {
	tr   *span.Recorder
	seed int64
	dir  string
	out  map[string]float64
	ops  harness.Ops
}

// Run executes every probe and returns the layer table plus the output
// checks the probes made on the way.
func Run(seed int64, tmpRoot string, tr *span.Recorder) (map[string]float64, *harness.Ops, error) {
	dir, err := os.MkdirTemp(tmpRoot, "layers-")
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // best-effort cleanup of scratch files
	p := &prober{tr: tr, seed: seed, dir: dir, out: map[string]float64{}}
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"engine", p.engineLayers},
		{"store", p.storeLayers},
		{"serving", p.servingLayers},
	} {
		if err := step.fn(); err != nil {
			return nil, nil, fmt.Errorf("layers: %s probes: %w", step.name, err)
		}
	}
	return p.out, &p.ops, nil
}

// sample calls fn until it has run want times, or — for slow calls — until
// budget is spent and at least three calls are in, and returns the
// per-call durations in nanoseconds. Every call is a span under one root.
func (p *prober) sample(name string, want int, budget time.Duration, fn func()) []float64 {
	root := p.tr.Start("probe:"+name, 0, 0)
	defer p.tr.End(root)
	out := make([]float64, 0, want)
	start := time.Now()
	for len(out) < want && (len(out) < 3 || time.Since(start) < budget) {
		id := p.tr.Start(name, root, int64(len(out)))
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		p.tr.End(id)
		out = append(out, float64(d.Nanoseconds()))
	}
	return out
}

// slow is the p10 over calls of milliseconds and up: as many as fit budget.
func (p *prober) slow(name string, budget time.Duration, fn func()) float64 {
	return stats.P10(p.sample(name, 200, budget, fn))
}

// fast is the p10 over calls well under a millisecond: 200 of them, the
// budget only a backstop.
func (p *prober) fast(name string, fn func()) float64 { return p.slow(name, 2*time.Second, fn) }

// allocBytes reports the heap bytes fn allocates, exactly: nothing else
// allocates while a probe runs.
func allocBytes(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}
