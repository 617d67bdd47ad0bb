// Package loads holds the benchmark's five workloads. Each drives the
// program through its public entry points only; sizes are constants here,
// tuned so a quiet 2-core machine completes 40-100 rounds in the time box.
package loads

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"chopper"
	"chopper/internal/core"
	"chopper/internal/workloads"
)

// Builtins is the fixed order the four built-in applications are trained
// and ranked in.
var Builtins = []string{"sql", "kmeans", "pca", "pagerank"}

// Scaled returns a built-in application with its physical dataset scaled
// by mul/div and its data seed offset by seed, so every -seed yields
// different rows of the same shape.
func Scaled(name string, mul, div int, seed int64) (workloads.Workload, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	switch w := w.(type) {
	case *workloads.KMeans:
		w.Rows = w.Rows * mul / div
		w.Seed += 7919 * seed
	case *workloads.PCA:
		w.Rows = w.Rows * mul / div
		w.Seed += 7919 * seed
	case *workloads.SQL:
		w.Orders = w.Orders * mul / div
		w.Customers = w.Customers * mul / div
		w.Seed += 7919 * seed
	case *workloads.PageRank:
		w.Pages = w.Pages * mul / div
		w.Seed += 7919 * seed
	default:
		return nil, fmt.Errorf("loads: cannot scale workload %q", name)
	}
	return w, nil
}

// App adapts a workload to the tuner's App interface and keeps every run's
// checksum, in run order.
type App struct {
	W    workloads.Workload
	Sums []float64
}

// Name implements chopper.App.
func (a *App) Name() string { return a.W.Name() }

// InputBytes implements chopper.App.
func (a *App) InputBytes() int64 { return a.W.DefaultInputBytes() }

// Run implements chopper.App.
func (a *App) Run(sess *chopper.Session, inputBytes int64) error {
	res, err := a.W.Run(sess.Context(), inputBytes)
	if err != nil {
		return err
	}
	a.Sums = append(a.Sums, res.Checksum)
	return nil
}

// SameSum reports whether two checksums of one workload agree. Different
// partition counts add the same floats in a different order, so equality
// is to a relative 1e-9, far below any wrong-answer difference.
func SameSum(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// fixturePlan is the profiling grid behind the trained store: small enough
// to generate in a few seconds, wide enough that every stage has both
// partitioner schemes at several (D, P) points for the optimizer to fit.
var fixturePlan = chopper.TrialPlan{SizeFractions: []float64{0.5, 1}, Partitions: []int{100, 300}, Range: true}

// TrainShrink is the physical shrink factor a built-in is profiled at for
// the trained store and the tuner probes. KMeans seeds its centres from a
// 0.2% content-hash sample of the rows, so it keeps enough rows (6000)
// that no seed can come up short of its 8 centres.
func TrainShrink(name string) int {
	if name == "kmeans" {
		return 4
	}
	return 24
}

// TrainStore writes a durable profile store at base with all four
// built-ins trained from seed: the first three are folded into a snapshot,
// the last is left as a journal tail, so opening it exercises both halves
// of recovery. Returns the recovered-equivalent DB.
func TrainStore(seed int64, base string) (*core.DB, error) {
	store, db, err := core.OpenStore(base)
	if err != nil {
		return nil, err
	}
	store.SyncAppends = false // fixture generation; durability is not under test here
	store.Attach(db)
	for i, name := range Builtins {
		w, err := Scaled(name, 1, TrainShrink(name), seed)
		if err != nil {
			return nil, err
		}
		tn := &chopper.Tuner{DB: db, Plan: fixturePlan}
		if err := tn.Profile(&App{W: w}); err != nil {
			return nil, err
		}
		if i == len(Builtins)-2 {
			if err := store.Snapshot(db); err != nil {
				return nil, err
			}
		}
	}
	if err := store.Close(); err != nil {
		return nil, err
	}
	return db, nil
}

// CopyStore copies a store image (snapshot, journal, epoch meta) to a new
// base path.
func CopyStore(srcBase, dstBase string) error {
	if err := os.MkdirAll(filepath.Dir(dstBase), 0o755); err != nil {
		return err
	}
	for _, suffix := range []string{"", ".journal", ".meta"} {
		data, err := os.ReadFile(srcBase + suffix)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(dstBase+suffix, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
