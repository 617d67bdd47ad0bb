// Package stats holds the estimators the benchmark reports with: exact
// sample quantiles, and the first decile across rounds that stands in for
// "the value on an undisturbed machine".
package stats

import (
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 <= q <= 1) of xs with linear
// interpolation between order statistics. xs is not modified. An empty
// input yields NaN, which the emitter refuses to print.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// P10 is the run-level estimator for every timing metric: the first decile
// across identical rounds. A noisy neighbour only ever adds time to a
// round, so the low quantile tracks the program while the median and the
// total track the machine; the decile (not the minimum) keeps one lucky
// round from deciding the value.
func P10(xs []float64) float64 { return Quantile(xs, 0.10) }

// Min returns the smallest element (NaN when empty).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Spread is the interquartile range of xs as a share of its median — the
// run-to-run noise figure the A/A table reports beside every bound.
// Quartiles follow Python's statistics.quantiles(xs, n=4) (exclusive
// method), which is what the acceptance driver computes.
func Spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		// position i*(n+1)/4 in 1-based order statistics, clamped.
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := Median(s)
	if med == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}
