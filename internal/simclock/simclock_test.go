package simclock

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestClockOrdering(t *testing.T) {
	c := New()
	var got []int
	c.Schedule(3, func() { got = append(got, 3) })
	c.Schedule(1, func() { got = append(got, 1) })
	c.Schedule(2, func() { got = append(got, 2) })
	c.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if !almost(c.Now(), 3) {
		t.Fatalf("clock should end at 3, got %v", c.Now())
	}
}

func TestClockTieBreakBySequence(t *testing.T) {
	c := New()
	var got []string
	c.Schedule(5, func() { got = append(got, "a") })
	c.Schedule(5, func() { got = append(got, "b") })
	c.Schedule(5, func() { got = append(got, "c") })
	c.Run()
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("tie-break violated FIFO: %v", got)
	}
}

func TestClockAfterChains(t *testing.T) {
	c := New()
	var trace []float64
	c.After(1, func() {
		trace = append(trace, c.Now())
		c.After(2, func() { trace = append(trace, c.Now()) })
	})
	c.Run()
	if len(trace) != 2 || !almost(trace[0], 1) || !almost(trace[1], 3) {
		t.Fatalf("chained events wrong: %v", trace)
	}
}

func TestClockSchedulePastPanics(t *testing.T) {
	c := New()
	c.Schedule(10, func() {})
	c.Run()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic scheduling in the past")
		}
	}()
	c.Schedule(5, func() {})
}

func TestClockNegativeAfterPanics(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for negative delay")
		}
	}()
	c.After(-1, func() {})
}

func TestClockStepAndPending(t *testing.T) {
	c := New()
	if c.Step() {
		t.Fatalf("Step on empty clock should report false")
	}
	c.Schedule(1, func() {})
	c.Schedule(2, func() {})
	if c.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", c.Pending())
	}
	if !c.Step() || c.Pending() != 1 || !almost(c.Now(), 1) {
		t.Fatalf("step bookkeeping wrong: pending=%d now=%v", c.Pending(), c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	c := New()
	c.Advance(7)
	if !almost(c.Now(), 7) {
		t.Fatalf("advance failed: %v", c.Now())
	}
	c.Schedule(9, func() {})
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic advancing past a pending event")
		}
	}()
	c.Advance(5)
}

func TestRecorderSampleSum(t *testing.T) {
	var r Recorder
	r.Add(0, 10, 2)
	r.Add(5, 15, 3)
	if got := r.SampleSum(2); !almost(got, 2) {
		t.Fatalf("SampleSum(2) = %v, want 2", got)
	}
	if got := r.SampleSum(7); !almost(got, 5) {
		t.Fatalf("SampleSum(7) = %v, want 5", got)
	}
	if got := r.SampleSum(12); !almost(got, 3) {
		t.Fatalf("SampleSum(12) = %v, want 3", got)
	}
	if got := r.SampleSum(20); !almost(got, 0) {
		t.Fatalf("SampleSum(20) = %v, want 0", got)
	}
}

func TestRecorderHalfOpenSemantics(t *testing.T) {
	var r Recorder
	r.Add(0, 10, 1)
	if got := r.SampleSum(10); !almost(got, 0) {
		t.Fatalf("interval should be half-open: got %v at end point", got)
	}
	if got := r.SampleSum(0); !almost(got, 1) {
		t.Fatalf("interval should include start: got %v", got)
	}
}

func TestRecorderInstantInterval(t *testing.T) {
	var r Recorder
	r.Add(4, 4, 9)
	if got := r.SampleSum(4); !almost(got, 9) {
		t.Fatalf("instant interval should be active at its point: %v", got)
	}
	if got := r.SampleSum(4.001); !almost(got, 0) {
		t.Fatalf("instant interval active off-point: %v", got)
	}
}

func TestRecorderReversedIntervalNormalized(t *testing.T) {
	var r Recorder
	r.Add(10, 0, 1)
	if got := r.SampleSum(5); !almost(got, 1) {
		t.Fatalf("reversed interval not normalized: %v", got)
	}
}

func TestRecorderMaxTime(t *testing.T) {
	var r Recorder
	if r.MaxTime() != 0 {
		t.Fatalf("empty recorder MaxTime should be 0")
	}
	r.Add(1, 4, 1)
	r.Add(2, 9, 1)
	if !almost(r.MaxTime(), 9) {
		t.Fatalf("MaxTime = %v, want 9", r.MaxTime())
	}
}

func TestRecorderBucketMean(t *testing.T) {
	var r Recorder
	// Weight 4 active on [0, 5) of a 10-second horizon with 5-second buckets:
	// bucket 0 mean = 4, bucket 1 mean = 0.
	r.Add(0, 5, 4)
	got := r.BucketMean(10, 5)
	if len(got) != 2 || !almost(got[0], 4) || !almost(got[1], 0) {
		t.Fatalf("BucketMean = %v", got)
	}
	// Half-covering interval contributes half its weight to the bucket mean.
	var r2 Recorder
	r2.Add(0, 2.5, 4)
	got2 := r2.BucketMean(5, 5)
	if len(got2) != 1 || !almost(got2[0], 2) {
		t.Fatalf("partial BucketMean = %v, want [2]", got2)
	}
}

func TestRecorderBucketSumSpreads(t *testing.T) {
	var r Recorder
	// 100 events spread over [0, 10): 50 land in each 5-second bucket.
	r.Add(0, 10, 100)
	got := r.BucketSum(10, 5)
	if len(got) != 2 || !almost(got[0], 50) || !almost(got[1], 50) {
		t.Fatalf("BucketSum = %v", got)
	}
	// Instantaneous weight lands entirely in its bucket.
	var r2 Recorder
	r2.Add(7, 7, 3)
	got2 := r2.BucketSum(10, 5)
	if !almost(got2[1], 3) || !almost(got2[0], 0) {
		t.Fatalf("instant BucketSum = %v", got2)
	}
}

func TestRecorderSorted(t *testing.T) {
	var r Recorder
	r.Add(5, 6, 1)
	r.Add(1, 2, 1)
	r.Add(1, 9, 1)
	s := r.Sorted()
	if s[0].Start != 1 || s[0].End != 2 || s[1].End != 9 || s[2].Start != 5 {
		t.Fatalf("Sorted order wrong: %+v", s)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

// Property: total event-mass is conserved by BucketSum when the horizon
// covers every interval.
func TestQuickBucketSumConservesMass(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var r Recorder
		total := 0.0
		for i := 0; i < 20; i++ {
			s := rng.Float64() * 90
			e := s + rng.Float64()*10
			w := rng.Float64() * 100
			r.Add(s, e, w)
			total += w
		}
		buckets := r.BucketSum(100, 7)
		sum := 0.0
		for _, b := range buckets {
			sum += b
		}
		return math.Abs(sum-total) < 1e-6*math.Max(1, total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: BucketMean of a single full-horizon interval equals its weight in
// every bucket.
func TestQuickBucketMeanConstant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := rng.Float64() * 50
		var r Recorder
		r.Add(0, 100, w)
		for _, m := range r.BucketMean(100, 10) {
			if math.Abs(m-w) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: clock executes events in non-decreasing time order regardless of
// scheduling order.
func TestQuickClockMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		var times []float64
		for i := 0; i < 50; i++ {
			at := rng.Float64() * 1000
			c.Schedule(at, func() { times = append(times, c.Now()) })
		}
		c.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The clock and recorder queries below serve only these tests.

// Now reports the current simulated time in seconds.
func (c *Clock) Now() float64 { return c.now }

// After registers fn to run d seconds from the current simulated time.
func (c *Clock) After(d float64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("simclock: negative delay %.6f", d))
	}
	c.Schedule(c.now+d, fn)
}

// Pending reports the number of scheduled events not yet executed.
func (c *Clock) Pending() int { return len(c.events) }

// Advance moves the clock forward by d seconds without running events.
// It panics if an event would be skipped over.
func (c *Clock) Advance(d float64) {
	if d < 0 {
		panic("simclock: negative advance")
	}
	target := c.now + d
	if len(c.events) > 0 && c.events[0].at < target {
		panic(fmt.Sprintf("simclock: advance to %.6f would skip event at %.6f", target, c.events[0].at))
	}
	c.now = target
}

// Len reports the number of recorded intervals.
func (r *Recorder) Len() int { return len(r.intervals) }

// MaxTime reports the largest interval end time, or 0 when empty.
func (r *Recorder) MaxTime() float64 {
	m := 0.0
	for _, iv := range r.intervals {
		if iv.End > m {
			m = iv.End
		}
	}
	return m
}

// SampleSum reports the sum of weights of intervals active at instant t.
// An interval is active on [Start, End); instantaneous intervals
// (Start == End) are active exactly at Start.
func (r *Recorder) SampleSum(t float64) float64 {
	sum := 0.0
	for _, iv := range r.intervals {
		if iv.Start == iv.End {
			if t == iv.Start {
				sum += iv.Weight
			}
			continue
		}
		if t >= iv.Start && t < iv.End {
			sum += iv.Weight
		}
	}
	return sum
}

// Sorted returns a copy of the intervals ordered by start time; useful for
// deterministic serialization and tests.
func (r *Recorder) Sorted() []Interval {
	out := make([]Interval, len(r.intervals))
	copy(out, r.intervals)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End < out[j].End
	})
	return out
}
