// Package model implements CHOPPER's per-stage performance models
// (paper Eqs. 1-4): stage execution time and shuffle volume as functions of
// the stage input size D and the partition count P over the feature basis
// [D^3, D^2, D, sqrt(D), P^3, P^2, P, sqrt(P)], fit by ridge-regularized
// least squares, plus the normalized cost objective used to pick the
// optimal partition count.
package model

import (
	"errors"
	"fmt"
	"math"

	"chopper/internal/linalg"
)

// Sample is one observed stage execution.
type Sample struct {
	D        float64 // stage input size in bytes
	P        float64 // partition count
	Texe     float64 // stage execution time, seconds
	Sshuffle float64 // stage shuffle volume (max of read/write), bytes
}

// FeatureSet selects the model basis.
type FeatureSet int

// Feature bases.
const (
	// FullFeatures is the paper's basis: cube, square, linear and sub-linear
	// terms of both D and P, plus an intercept.
	FullFeatures FeatureSet = iota
	// LinearFeatures is the ablation basis: only D, P and an intercept.
	LinearFeatures
)

// Features evaluates the basis at (d bytes, p partitions). D enters in GB so
// cubic terms stay within float range.
func (fs FeatureSet) Features(d, p float64) []float64 {
	dg := d / 1e9
	switch fs {
	case LinearFeatures:
		return []float64{dg, p, 1}
	default:
		sd := math.Sqrt(math.Max(dg, 0))
		sp := math.Sqrt(math.Max(p, 0))
		return []float64{
			dg * dg * dg, dg * dg, dg, sd,
			p * p * p, p * p, p, sp,
			1,
		}
	}
}

// String names the basis for reports and labels.
func (fs FeatureSet) String() string {
	if fs == LinearFeatures {
		return "linear"
	}
	return "full"
}

// Model predicts a scalar stage quantity from (D, P).
type Model struct {
	Set  FeatureSet
	Coef []float64
}

// MinSamples is the smallest sample count Fit accepts.
const MinSamples = 4

// Fit fits target(sample) over the chosen basis with ridge regularization.
func Fit(samples []Sample, target func(Sample) float64, set FeatureSet, ridge float64) (*Model, error) {
	if len(samples) < MinSamples {
		return nil, fmt.Errorf("model: need at least %d samples, have %d", MinSamples, len(samples))
	}
	if ridge <= 0 {
		ridge = 1e-6
	}
	x := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		x[i] = set.Features(s.D, s.P)
		y[i] = target(s)
	}
	coef, err := linalg.LeastSquares(x, y, ridge)
	if err != nil {
		return nil, fmt.Errorf("model: fit: %w", err)
	}
	return &Model{Set: set, Coef: coef}, nil
}

// Predict evaluates the model, clamped to be non-negative (negative times
// and volumes are artifacts of extrapolation).
func (m *Model) Predict(d, p float64) float64 {
	f := m.Set.Features(d, p)
	s := 0.0
	for i, c := range m.Coef {
		s += c * f[i]
	}
	if s < 0 {
		return 0
	}
	return s
}

// TexeOf extracts the execution-time fit target from a sample.
func TexeOf(s Sample) float64 { return s.Texe }

// ShuffleOf extracts the shuffle-volume fit target from a sample.
func ShuffleOf(s Sample) float64 { return s.Sshuffle }

// StageModels bundles the two models of one (stage, partitioner) pair.
type StageModels struct {
	Texe    *Model
	Shuffle *Model
}

// FitStage fits both stage models from the same sample set.
func FitStage(samples []Sample, set FeatureSet, ridge float64) (*StageModels, error) {
	texe, err := Fit(samples, TexeOf, set, ridge)
	if err != nil {
		return nil, err
	}
	sh, err := Fit(samples, ShuffleOf, set, ridge)
	if err != nil {
		return nil, err
	}
	return &StageModels{Texe: texe, Shuffle: sh}, nil
}

// Cost evaluates Eq. 3: alpha * texe/texeRef + beta * sshuffle/sshuffleRef,
// where the reference values are the quantities observed (or predicted)
// under the default parallelism. Zero references drop their term's
// normalization (the term contributes zero when the quantity is also zero).
func Cost(texe, sshuffle, texeRef, sshuffleRef, alpha, beta float64) float64 {
	c := 0.0
	switch {
	case texeRef > 0:
		c += alpha * texe / texeRef
	case texe > 0:
		c += alpha * 2 // worse than the (zero-time) reference; rare corner
	}
	switch {
	case sshuffleRef > 0:
		c += beta * sshuffle / sshuffleRef
	case sshuffle > 0:
		c += beta * 2
	}
	return c
}

// MinimizeCost scans candidate partition counts and returns the count with
// the lowest Eq. 3 cost for input size d, along with that cost (Eq. 4).
// refP is the default parallelism used for normalization.
func (sm *StageModels) MinimizeCost(d float64, candidates []int, refP int, alpha, beta float64) (int, float64, error) {
	texeRef := sm.Texe.Predict(d, float64(refP))
	shRef := sm.Shuffle.Predict(d, float64(refP))
	return sm.MinimizeCostWithRef(d, candidates, texeRef, shRef, alpha, beta)
}

// MinimizeCostWithRef is MinimizeCost with explicit normalization
// references. Algorithm 1 compares range- and hash-partitioner costs, so
// both must normalize against the same default configuration — the caller
// supplies that single reference.
func (sm *StageModels) MinimizeCostWithRef(d float64, candidates []int, texeRef, shRef, alpha, beta float64) (int, float64, error) {
	if len(candidates) == 0 {
		return 0, 0, errors.New("model: no candidate partition counts")
	}
	bestP, bestC := 0, math.Inf(1)
	for _, p := range candidates {
		if p <= 0 {
			continue
		}
		c := Cost(sm.Texe.Predict(d, float64(p)), sm.Shuffle.Predict(d, float64(p)), texeRef, shRef, alpha, beta)
		if c < bestC {
			bestC, bestP = c, p
		}
	}
	if bestP == 0 {
		return 0, 0, errors.New("model: no valid candidate")
	}
	return bestP, bestC, nil
}
