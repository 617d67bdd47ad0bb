package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synth generates samples from a known cost surface with a U-shape in P:
// texe = a*D + b/P + c*P (waves + per-task overhead), sshuffle = s0*D + s1*P.
func synth(n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	var out []Sample
	for i := 0; i < n; i++ {
		d := (1 + rng.Float64()*30) * 1e9
		p := float64(50 + rng.Intn(950))
		texe := 3e-9*d + 2e4*(d/1e9)/p + 0.12*p
		sh := 0.01*d + 5e4*p
		out = append(out, Sample{D: d, P: p, Texe: texe, Sshuffle: sh})
	}
	return out
}

func TestFeaturesShape(t *testing.T) {
	f := FullFeatures.Features(8e9, 100)
	if len(f) != 9 {
		t.Fatalf("full basis should have 9 features, got %d", len(f))
	}
	if f[0] != 512 || f[2] != 8 || f[6] != 100 || f[8] != 1 {
		t.Fatalf("features wrong: %v", f)
	}
	if math.Abs(f[3]-math.Sqrt(8)) > 1e-12 || math.Abs(f[7]-10) > 1e-12 {
		t.Fatalf("sqrt features wrong: %v", f)
	}
	l := LinearFeatures.Features(2e9, 10)
	if len(l) != 3 || l[0] != 2 || l[1] != 10 || l[2] != 1 {
		t.Fatalf("linear basis wrong: %v", l)
	}
	if FullFeatures.String() != "full" || LinearFeatures.String() != "linear" {
		t.Fatalf("String() labels wrong")
	}
}

func TestFitAndPredictAccuracy(t *testing.T) {
	samples := synth(120, 7)
	sm, err := FitStage(samples, FullFeatures, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// The additive basis has no D/P interaction term, so a surface with a
	// wave term D/P fits imperfectly over mixed (D, P) — the paper itself
	// calls the model coarse-grained. It must still explain most variance.
	if r2 := sm.Texe.R2(samples, TexeOf); r2 < 0.75 {
		t.Fatalf("texe R2 = %v, want >= 0.75", r2)
	}
	if r2 := sm.Shuffle.R2(samples, ShuffleOf); r2 < 0.95 {
		t.Fatalf("shuffle R2 = %v, want >= 0.95", r2)
	}
}

func TestFitFixedInputSizeIsTight(t *testing.T) {
	// With D held fixed (one workload at one scale), the basis captures the
	// P-dependence nearly exactly.
	var samples []Sample
	d := 20e9
	for p := 50.0; p <= 1000; p += 25 {
		texe := 3e-9*d + 2e4*(d/1e9)/p + 0.12*p
		samples = append(samples, Sample{D: d, P: p, Texe: texe, Sshuffle: 0.01*d + 5e4*p})
	}
	sm, err := FitStage(samples, FullFeatures, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := sm.Texe.R2(samples, TexeOf); r2 < 0.95 {
		t.Fatalf("fixed-D texe R2 = %v, want >= 0.95", r2)
	}
}

func TestFullBeatsLinearOnCurvedSurface(t *testing.T) {
	samples := synth(150, 11)
	full, err := Fit(samples, TexeOf, FullFeatures, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := Fit(samples, TexeOf, LinearFeatures, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	r2Full, r2Lin := full.R2(samples, TexeOf), lin.R2(samples, TexeOf)
	if r2Full <= r2Lin {
		t.Fatalf("full basis should beat linear on a curved surface: %v vs %v", r2Full, r2Lin)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(synth(2, 1), TexeOf, FullFeatures, 1e-6); err == nil {
		t.Fatalf("too few samples should error")
	}
}

func TestPredictClampsNegative(t *testing.T) {
	m := &Model{Set: LinearFeatures, Coef: []float64{-100, -100, -100}}
	if got := m.Predict(1e9, 10); got != 0 {
		t.Fatalf("negative prediction should clamp to 0, got %v", got)
	}
}

func TestCostEquation(t *testing.T) {
	// Equal to reference on both terms with alpha=beta=0.5 -> cost 1.
	if c := Cost(10, 100, 10, 100, 0.5, 0.5); math.Abs(c-1) > 1e-12 {
		t.Fatalf("cost = %v, want 1", c)
	}
	// Halving both -> 0.5.
	if c := Cost(5, 50, 10, 100, 0.5, 0.5); math.Abs(c-0.5) > 1e-12 {
		t.Fatalf("cost = %v, want 0.5", c)
	}
	// Weights shift importance.
	if c := Cost(5, 200, 10, 100, 1.0, 0.0); math.Abs(c-0.5) > 1e-12 {
		t.Fatalf("alpha-only cost = %v", c)
	}
	// Zero references with nonzero observation are penalized.
	if c := Cost(5, 0, 0, 100, 0.5, 0.5); c <= 0 {
		t.Fatalf("zero-reference corner should not be free: %v", c)
	}
}

func TestMinimizeCostFindsUShapeMinimum(t *testing.T) {
	samples := synth(200, 3)
	sm, err := FitStage(samples, FullFeatures, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	var candidates []int
	for p := 50; p <= 1000; p += 10 {
		candidates = append(candidates, p)
	}
	d := 20e9
	best, cost, err := sm.MinimizeCost(d, candidates, 300, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("cost should be positive")
	}
	// True texe minimum of 2e4*20/p + 0.12p is at p = sqrt(2e4*20/0.12) ~ 1826;
	// with the shuffle term pulling down, the best should be well inside the
	// range and beat both extremes.
	evalAt := func(p int) float64 {
		texeRef := sm.Texe.Predict(d, 300)
		shRef := sm.Shuffle.Predict(d, 300)
		return Cost(sm.Texe.Predict(d, float64(p)), sm.Shuffle.Predict(d, float64(p)), texeRef, shRef, 0.5, 0.5)
	}
	if evalAt(best) > evalAt(50)+1e-9 || evalAt(best) > evalAt(1000)+1e-9 {
		t.Fatalf("minimum %d not better than extremes", best)
	}
}

func TestMinimizeCostErrors(t *testing.T) {
	sm := &StageModels{
		Texe:    &Model{Set: LinearFeatures, Coef: []float64{1, 1, 1}},
		Shuffle: &Model{Set: LinearFeatures, Coef: []float64{1, 1, 1}},
	}
	if _, _, err := sm.MinimizeCost(1e9, nil, 300, 0.5, 0.5); err == nil {
		t.Fatalf("empty candidates should error")
	}
	if _, _, err := sm.MinimizeCost(1e9, []int{0, -5}, 300, 0.5, 0.5); err == nil {
		t.Fatalf("all-invalid candidates should error")
	}
}

// Property: Predict is deterministic and non-negative everywhere.
func TestQuickPredictNonNegative(t *testing.T) {
	samples := synth(80, 5)
	sm, err := FitStage(samples, FullFeatures, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	f := func(dRaw, pRaw uint32) bool {
		d := float64(dRaw%100) * 1e9
		p := float64(pRaw%2000 + 1)
		v1 := sm.Texe.Predict(d, p)
		v2 := sm.Texe.Predict(d, p)
		return v1 >= 0 && v1 == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: MinimizeCost returns a candidate from the candidate list.
func TestQuickMinimizeReturnsCandidate(t *testing.T) {
	samples := synth(80, 9)
	sm, err := FitStage(samples, FullFeatures, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cands []int
		for i := 0; i < 10; i++ {
			cands = append(cands, 10+rng.Intn(1000))
		}
		best, _, err := sm.MinimizeCost(15e9, cands, 300, 0.5, 0.5)
		if err != nil {
			return false
		}
		for _, c := range cands {
			if c == best {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// R2 reports the coefficient of determination over a sample set.
func (m *Model) R2(samples []Sample, target func(Sample) float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	mean := 0.0
	for _, s := range samples {
		mean += target(s)
	}
	mean /= float64(len(samples))
	var ssRes, ssTot float64
	for _, s := range samples {
		y := target(s)
		pred := m.Predict(s.D, s.P)
		ssRes += (y - pred) * (y - pred)
		ssTot += (y - mean) * (y - mean)
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}
