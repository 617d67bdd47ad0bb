// Package simclock holds the interval recorder the metrics collector
// replays task records into to rebuild the paper's utilization timelines
// (Figs. 11-14), and a discrete-event clock. The engine computes simulated
// time by placement and never schedules an event: only the bench/ module's
// simclock.event_ns probe runs the clock. All simulated durations are in
// seconds.
//
// The clock is single-threaded by design: events execute in (time, sequence)
// order, so two events scheduled for the same instant fire in the order they
// were scheduled.
package simclock

import (
	"container/heap"
	"fmt"
	"math"
)

// event is a scheduled callback.
type event struct {
	at  float64
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	*h = old[:n-1]
	return
}

// Clock is a discrete-event simulation clock.
// The zero value is not ready for use; call New.
type Clock struct {
	now    float64
	seq    int64
	events eventHeap
}

// New returns a clock positioned at time zero with no pending events.
func New() *Clock { return &Clock{} }

// Schedule registers fn to run at absolute simulated time at.
// Scheduling in the past (at < Now) panics: it would silently reorder
// history and break determinism.
func (c *Clock) Schedule(at float64, fn func()) {
	if at < c.now {
		panic(fmt.Sprintf("simclock: schedule at %.6f before now %.6f", at, c.now))
	}
	c.seq++
	heap.Push(&c.events, event{at: at, seq: c.seq, fn: fn})
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (c *Clock) Step() bool {
	if len(c.events) == 0 {
		return false
	}
	ev := heap.Pop(&c.events).(event)
	c.now = ev.at
	ev.fn()
	return true
}

// Run executes events until none remain.
func (c *Clock) Run() {
	for c.Step() {
	}
}

// Interval is a weighted time interval [Start, End).
type Interval struct {
	Start, End float64
	Weight     float64
}

// Recorder accumulates weighted intervals and answers utilization queries
// over them. It is used to reconstruct the paper's Figs. 11-14 timelines
// (CPU %, memory %, packets/s, transactions/s) from task and transfer spans.
type Recorder struct {
	intervals []Interval
}

// Add records a weighted interval, normalizing a reversed one. Zero-length
// and zero-weight intervals are kept: BucketSum counts an instantaneous
// interval's weight in its bucket.
func (r *Recorder) Add(start, end, weight float64) {
	if end < start {
		start, end = end, start
	}
	r.intervals = append(r.intervals, Interval{Start: start, End: end, Weight: weight})
}

// BucketMean reports, for each step-sized bucket of [0, horizon), the
// time-weighted mean of the active weight sum. This matches "average
// utilization within each sampling window".
func (r *Recorder) BucketMean(horizon, step float64) []float64 {
	if step <= 0 {
		panic("simclock: BucketMean step must be positive")
	}
	n := int(math.Ceil(horizon / step))
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	for _, iv := range r.intervals {
		if iv.Weight == 0 || iv.End <= iv.Start {
			continue
		}
		first := int(iv.Start / step)
		last := int(math.Ceil(iv.End/step)) - 1
		if first < 0 {
			first = 0
		}
		for b := first; b <= last && b < n; b++ {
			lo := math.Max(iv.Start, float64(b)*step)
			hi := math.Min(iv.End, float64(b+1)*step)
			if hi > lo {
				out[b] += iv.Weight * (hi - lo) / step
			}
		}
	}
	return out
}

// BucketSum reports, for each step-sized bucket of [0, horizon), the total
// weight whose interval midpoint falls in the bucket, spread proportionally
// over the buckets the interval overlaps. Used for rate-style series
// (packets per second, transactions per second): Weight is a count of
// events spread uniformly over the interval.
func (r *Recorder) BucketSum(horizon, step float64) []float64 {
	if step <= 0 {
		panic("simclock: BucketSum step must be positive")
	}
	n := int(math.Ceil(horizon / step))
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	for _, iv := range r.intervals {
		if iv.Weight == 0 {
			continue
		}
		if iv.End <= iv.Start {
			b := int(iv.Start / step)
			if b >= 0 && b < n {
				out[b] += iv.Weight
			}
			continue
		}
		span := iv.End - iv.Start
		first := int(iv.Start / step)
		last := int(math.Ceil(iv.End/step)) - 1
		if first < 0 {
			first = 0
		}
		for b := first; b <= last && b < n; b++ {
			lo := math.Max(iv.Start, float64(b)*step)
			hi := math.Min(iv.End, float64(b+1)*step)
			if hi > lo {
				out[b] += iv.Weight * (hi - lo) / span
			}
		}
	}
	return out
}
