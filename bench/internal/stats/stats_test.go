package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Quantile(xs, 0.5); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 4 {
		t.Fatalf("q1 = %v, want 4", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty input must yield NaN")
	}
}

// A neighbour that triples the time of 30% of the rounds must not move the
// first decile, while it drags the mean and the median's upper neighbours.
func TestP10IgnoresInjectedBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const base = 100.0
	quiet := make([]float64, 60)
	for i := range quiet {
		quiet[i] = base * (1 + 0.01*rng.Float64())
	}
	noisy := append([]float64(nil), quiet...)
	// Bursts arrive in runs, as steal time does.
	for i := 0; i < len(noisy); i++ {
		if i%10 < 3 {
			noisy[i] *= 3
		}
	}
	q, n := P10(quiet), P10(noisy)
	if math.Abs(n-q)/q > 0.01 {
		t.Fatalf("p10 moved from %.3f to %.3f under 30%% 3x bursts", q, n)
	}
	mean := 0.0
	for _, x := range noisy {
		mean += x
	}
	mean /= float64(len(noisy))
	if mean < 1.5*base {
		t.Fatalf("bursts were not injected: mean %.1f", mean)
	}
}

// Spread must agree with Python's statistics.quantiles(n=4) on a known case:
// quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	want := (8.25 - 2.75) / 5.5
	if got := Spread(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}
