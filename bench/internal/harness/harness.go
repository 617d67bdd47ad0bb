// Package harness times a workload the way every number in BENCHMARK.json
// is defined: fixture generation, then set-up repeated from scratch, then a
// fixed time box filled with identical rounds. A run's value for a timing
// metric is the first decile across rounds (stats.P10); counts are section
// deltas divided by the round count.
package harness

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"chopper/bench/internal/span"
	"chopper/bench/internal/stats"
)

// Ops collects what one round attempted: a latency sample for workloads
// whose ops are requests, and the attempted/failed counts every output
// check feeds. Not safe for concurrent use; concurrent clients keep their
// own Ops and Merge them when the round ends.
type Ops struct {
	LatMs     []float64
	Attempted int
	Failed    int
}

// Op records one timed op and whether its output check held.
func (o *Ops) Op(lat time.Duration, ok bool) {
	o.LatMs = append(o.LatMs, float64(lat.Nanoseconds())/1e6)
	o.Check(ok)
}

// Check records one untimed op or output check.
func (o *Ops) Check(ok bool) {
	o.Attempted++
	if !ok {
		o.Failed++
	}
}

// Merge folds another client's ops into o.
func (o *Ops) Merge(p *Ops) {
	o.LatMs = append(o.LatMs, p.LatMs...)
	o.Attempted += p.Attempted
	o.Failed += p.Failed
}

func (o *Ops) reset() { o.LatMs, o.Attempted, o.Failed = o.LatMs[:0], 0, 0 }

// Instance is one set-up of a workload, ready to run rounds.
type Instance interface {
	// Round runs the workload's fixed, deterministic op list once. Spans
	// go under parent when tr is non-nil.
	Round(ops *Ops, tr *span.Recorder, parent int) error
	// Close runs the end-of-run output checks (recorded in ops) and stops
	// and removes everything Setup started.
	Close(ops *Ops) error
}

// Workload is one entry of BENCHMARK.json's workloads list.
type Workload interface {
	Name() string
	// TailQ is the in-round latency quantile reported as op_tail_ms. Rounds
	// that record no latency sample (batch workloads) report the round's
	// wall time for both op metrics instead.
	TailQ() float64
	// Fixture derives the workload's inputs from seed, writing any files
	// under dir. Its time is env.fixture_s and part of no end-to-end metric.
	Fixture(seed int64, dir string) error
	// Setup initialises the program from scratch on the fixture.
	Setup() (Instance, error)
}

// Config shapes one run.
type Config struct {
	Seed       int64
	Seconds    float64 // time box of the timed section
	MinRounds  int     // the box is extended until this many rounds ran
	Setups     int     // from-scratch set-ups timed; setup_s is the fastest
	WarmRounds int     // warm-up rounds inside each set-up
	TmpRoot    string  // fixtures and stores live in a temp dir under here
	// Tracer, when set, makes this the traced run: one set-up, every other
	// round traced, runtime figures instead of end-to-end ones.
	Tracer *span.Recorder
}

// DefaultConfig returns the settings BENCHMARK.json's numbers are defined
// at, for the given box length.
func DefaultConfig(seed int64, seconds float64, tmpRoot string) Config {
	return Config{Seed: seed, Seconds: seconds, MinRounds: 24, Setups: 3, WarmRounds: 3, TmpRoot: tmpRoot}
}

// RoundStat is one round's record.
type RoundStat struct {
	Traced   bool    `json:"traced,omitempty"`
	WallMs   float64 `json:"wall_ms"`
	CPUMs    float64 `json:"cpu_ms"`
	AllocB   uint64  `json:"alloc_b"`
	Mallocs  uint64  `json:"mallocs"`
	NumGC    uint32  `json:"num_gc"`
	PauseNs  uint64  `json:"pause_ns"`
	OpP50Ms  float64 `json:"op_p50_ms"`
	OpTailMs float64 `json:"op_tail_ms"`
}

// Report is everything one run measured. EndToEnd is set on untraced runs;
// Runtime (gc.*, heap.*, peak RSS) on traced ones; Env on both.
type Report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	Runtime   map[string]float64 `json:"runtime,omitempty"`
	Env       map[string]float64 `json:"env"`
	Rounds    []RoundStat        `json:"rounds"`
}

// section is one timed stretch of rounds.
type section struct {
	rounds   []RoundStat
	allocB   uint64
	mallocs  uint64
	numGC    uint32
	pauseNs  uint64
	stealPct float64
	extended float64
	heapMB   float64
}

func (s *section) col(f func(RoundStat) float64) []float64 {
	out := make([]float64, len(s.rounds))
	for i, r := range s.rounds {
		out[i] = f(r)
	}
	return out
}

func wallOf(r RoundStat) float64 { return r.WallMs }

// Run executes one full run of w.
func Run(w Workload, cfg Config) (*Report, error) {
	dir, err := os.MkdirTemp(cfg.TmpRoot, "run-"+w.Name()+"-")
	if err != nil {
		return nil, fmt.Errorf("harness: temp dir: %w", err)
	}
	defer func() { _ = os.RemoveAll(dir) }() // best-effort cleanup of scratch files

	rep := &Report{Workload: w.Name(), Seed: cfg.Seed, Env: map[string]float64{}}
	t0 := time.Now()
	if err := w.Fixture(cfg.Seed, dir); err != nil {
		return nil, fmt.Errorf("harness: %s fixture: %w", w.Name(), err)
	}
	rep.Env["env.fixture_s"] = time.Since(t0).Seconds()

	var ops Ops
	count := func() {
		rep.Attempted += ops.Attempted
		rep.Failed += ops.Failed
		ops.reset()
	}

	traced := cfg.Tracer != nil
	setups := cfg.Setups
	if traced {
		setups = 1
	}
	var inst Instance
	var setupS []float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		if inst, err = w.Setup(); err != nil {
			return nil, fmt.Errorf("harness: %s set-up %d: %w", w.Name(), i, err)
		}
		for r := 0; r < cfg.WarmRounds; r++ {
			if err := inst.Round(&ops, nil, 0); err != nil {
				_ = inst.Close(&ops) // the round error is the one to report
				return nil, fmt.Errorf("harness: %s warm-up round: %w", w.Name(), err)
			}
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		count()
		if i < setups-1 {
			if err := inst.Close(&ops); err != nil {
				return nil, fmt.Errorf("harness: %s close after set-up %d: %w", w.Name(), i, err)
			}
			count()
		}
	}

	rep.Env["env.spin_ms_before"] = spinMs()
	timed, err := runSection(inst, &ops, count, cfg.Seconds, cfg.MinRounds, w.TailQ(), cfg.Tracer)
	if err != nil {
		_ = inst.Close(&ops) // the round error is the one to report
		return nil, err
	}
	if traced {
		// Traced and untraced rounds alternate, so both see the same
		// machine; the ratio of their p10s is the tracing overhead.
		var on, off []float64
		for _, r := range timed.rounds {
			if r.Traced {
				on = append(on, r.WallMs)
			} else {
				off = append(off, r.WallMs)
			}
		}
		rep.Env["env.trace_overhead_pct"] = 100 * (stats.P10(on)/stats.P10(off) - 1)
		n := float64(len(timed.rounds))
		rep.Runtime = map[string]float64{
			"gc.cycles_per_round":   float64(timed.numGC) / n,
			"gc.pause_ms_per_round": float64(timed.pauseNs) / 1e6 / n,
			"heap.inuse_mb":         timed.heapMB,
			"peak_rss_mb":           peakRSSMB(),
		}
	}
	rep.Env["env.spin_ms_after"] = spinMs()
	if err := inst.Close(&ops); err != nil {
		return nil, fmt.Errorf("harness: %s close: %w", w.Name(), err)
	}
	count()

	rep.Rounds = timed.rounds
	wall := timed.col(wallOf)
	rep.Env["env.rounds"] = float64(len(timed.rounds))
	rep.Env["env.box_extended_s"] = timed.extended
	rep.Env["env.round_ms_p50"] = stats.Median(wall)
	rep.Env["env.round_ms_p90"] = stats.Quantile(wall, 0.9)
	rep.Env["env.steal_pct"] = timed.stealPct
	if !traced {
		n := float64(len(timed.rounds))
		rep.EndToEnd = map[string]float64{
			"setup_s":             stats.Min(setupS),
			"round_ms":            stats.P10(wall),
			"round_cpu_ms":        stats.P10(timed.col(func(r RoundStat) float64 { return r.CPUMs })),
			"op_p50_ms":           stats.P10(timed.col(func(r RoundStat) float64 { return r.OpP50Ms })),
			"op_tail_ms":          stats.P10(timed.col(func(r RoundStat) float64 { return r.OpTailMs })),
			"alloc_mb_per_round":  float64(timed.allocB) / 1e6 / n,
			"mallocs_k_per_round": float64(timed.mallocs) / 1e3 / n,
		}
	}
	return rep, nil
}

// runSection fills a time box with rounds, running on past the box until
// minRounds have completed. With a tracer, every other round is traced.
func runSection(inst Instance, ops *Ops, count func(), seconds float64, minRounds int, tailQ float64, tr *span.Recorder) (*section, error) {
	s := &section{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	first := m0
	steal0, total0 := procStat()
	start := time.Now()
	box := time.Duration(seconds * float64(time.Second))
	extended := false
	for time.Since(start) < box || len(s.rounds) < minRounds {
		// Only a shortfall of rounds lets an iteration start past the box.
		extended = extended || time.Since(start) >= box
		rtr := tr
		if len(s.rounds)%2 == 0 {
			rtr = nil
		}
		cpu0 := cpuTime()
		t0 := time.Now()
		id := rtr.Start("round", 0, int64(len(s.rounds)))
		err := inst.Round(ops, rtr, id)
		rtr.End(id)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		if err != nil {
			return nil, fmt.Errorf("harness: round %d: %w", len(s.rounds), err)
		}
		runtime.ReadMemStats(&m1)
		rs := RoundStat{
			Traced:  rtr != nil,
			WallMs:  float64(wall.Nanoseconds()) / 1e6,
			CPUMs:   float64(cpu.Nanoseconds()) / 1e6,
			AllocB:  m1.TotalAlloc - m0.TotalAlloc,
			Mallocs: m1.Mallocs - m0.Mallocs,
			NumGC:   m1.NumGC - m0.NumGC,
			PauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		}
		rs.OpP50Ms, rs.OpTailMs = rs.WallMs, rs.WallMs
		if len(ops.LatMs) > 0 {
			sort.Float64s(ops.LatMs)
			rs.OpP50Ms = stats.Median(ops.LatMs)
			rs.OpTailMs = stats.Quantile(ops.LatMs, tailQ)
		}
		s.rounds = append(s.rounds, rs)
		count()
		m0 = m1
	}
	if extended {
		s.extended = (time.Since(start) - box).Seconds()
	}
	steal1, total1 := procStat()
	if total1 > total0 {
		s.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	s.allocB = m1.TotalAlloc - first.TotalAlloc
	s.mallocs = m1.Mallocs - first.Mallocs
	s.numGC = m1.NumGC - first.NumGC
	s.pauseNs = m1.PauseTotalNs - first.PauseTotalNs
	s.heapMB = float64(m1.HeapInuse) / 1e6
	return s, nil
}

// cpuTime is the process's user+system CPU time so far. The servers under
// test run in this process, so their CPU is included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss (kilobytes on Linux) in 10^6 bytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
