package layers

import (
	"testing"
	"time"

	"chopper/bench/internal/span"
)

func TestSampleStopsAtWantOrBudget(t *testing.T) {
	p := &prober{tr: span.New(), out: map[string]float64{}}
	calls := 0
	if got := p.sample("fast", 200, time.Second, func() { calls++ }); len(got) != 200 || calls != 200 {
		t.Fatalf("fast calls: %d samples, %d calls, want 200", len(got), calls)
	}
	// A slow call stops at the budget, but never before three calls.
	got := p.sample("slow", 200, time.Millisecond, func() { time.Sleep(2 * time.Millisecond) })
	if len(got) != 3 {
		t.Fatalf("slow calls: %d samples, want 3", len(got))
	}
	for _, ns := range got {
		if ns < 2e6 {
			t.Fatalf("sample %v ns is shorter than the 2 ms the call slept", ns)
		}
	}
	// Every call is a span under its probe's root.
	spans := p.tr.Spans()
	if len(spans) != 205 || spans[0].Name != "probe:fast" || spans[1].Parent != spans[0].ID {
		t.Fatalf("%d spans, first %q", len(spans), spans[0].Name)
	}
}
