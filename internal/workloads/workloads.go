// Package workloads implements four workloads — the three SparkBench
// workloads the paper evaluates, KMeans, PCA and SQL, and PageRank as an
// extension — together with their deterministic data generators, built
// purely on the RDD API. Each workload value replays the source
// partitions it recorded on an earlier run instead of generating them
// again (memo.go).
//
// Physical-vs-logical scaling: each workload materializes a laptop-sized
// physical dataset (tens of thousands of rows) and sets the context's
// LogicalScale so that the engine accounts for the paper-scale logical
// input (Table I: KMeans 21.8 GB, PCA 27.6 GB, SQL 34.5 GB). All cost-model
// quantities (task input bytes, shuffle volumes) are logical.
package workloads

import (
	"errors"
	"fmt"
	"math"

	"chopper/internal/rdd"
)

// GB is one logical gigabyte in bytes.
const GB = 1e9

// Result summarizes a workload run for correctness validation: Checksum is
// a deterministic scalar derived from the computed output (identical across
// engines and configurations), and Details carries named sub-results.
type Result struct {
	Checksum float64
	Details  map[string]float64
}

// Workload is a runnable benchmark application.
type Workload interface {
	// Name is the registry key ("kmeans", "pca", "sql", "pagerank").
	Name() string
	// DefaultInputBytes is the paper's Table I input size.
	DefaultInputBytes() int64
	// Run builds the pipeline on ctx and executes it at the given logical
	// input size. It sets ctx.LogicalScale accordingly.
	Run(ctx *rdd.Context, inputBytes int64) (Result, error)
}

// All returns the three paper workloads with default shapes.
func All() []Workload {
	return []Workload{NewKMeans(), NewPCA(), NewSQL()}
}

// AllWithExtensions returns the paper workloads plus the extension
// workloads (PageRank).
func AllWithExtensions() []Workload {
	return append(All(), NewPageRank())
}

// ByName finds a workload by registry key.
func ByName(name string) (Workload, error) {
	for _, w := range AllWithExtensions() {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// Shrink scales a workload's physical dataset down by factor so sweeps
// stay fast; logical input sizes and the cost model are unchanged, so the
// plans exercised are the real ones. A factor <= 1 is a no-op.
func Shrink(w Workload, factor int) {
	if factor <= 1 {
		return
	}
	switch w := w.(type) {
	case *KMeans:
		w.Rows /= factor
	case *PCA:
		w.Rows /= factor
	case *SQL:
		w.Orders /= factor
		w.Customers /= factor
	case *PageRank:
		w.Pages /= factor
	}
}

// ErrInputTooSmall marks a run whose input, shrunk, holds too few rows for
// the workload to compute its result: fewer points than KMeans' centers,
// no PCA rows or a degenerate power iteration, an empty PageRank graph, an
// SQL table or join without rows. A request for such a run is the
// caller's to change, not a failure of the service.
var ErrInputTooSmall = errors.New("workloads: input too small to run")

// Empty reports whether w has a table without physical rows, as a shrink
// factor larger than the table leaves it: such a workload cannot run.
func Empty(w Workload) bool {
	switch w := w.(type) {
	case *KMeans:
		return w.Rows <= 0
	case *PCA:
		return w.Rows <= 0
	case *SQL:
		return w.Orders <= 0 || w.Customers <= 0
	case *PageRank:
		return w.Pages <= 0
	}
	return false
}

// det01 maps (seed, i) to a deterministic pseudo-uniform float in [0, 1).
func det01(seed, i int64) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return float64(x>>11) / float64(1<<53)
}

// detNorm maps (seed, i) to an approximately standard-normal deviate
// (sum of uniforms, deterministic).
func detNorm(seed, i int64) float64 {
	s := 0.0
	for k := int64(0); k < 4; k++ {
		s += det01(seed+k*7919, i)
	}
	return (s - 2) * math.Sqrt(3)
}

// ZipfIndex draws a deterministic Zipf-like index in [0, n) with exponent
// ~1.2: heavy head, long tail. SQL draws its order keys with it, and the
// skew ablation re-derives them.
func ZipfIndex(seed, i int64, n int) int {
	u := det01(seed, i)
	// Inverse-CDF approximation for P(k) ~ 1/(k+1)^1.2.
	x := math.Pow(u, 3.5) * float64(n)
	k := int(x)
	if k >= n {
		k = n - 1
	}
	return k
}

// strideRows calls fn for every row index assigned to split (i ≡ split mod
// total), the partition-count-independent assignment all generators use.
func strideRows(nRows, split, total int, fn func(i int)) {
	for i := split; i < nRows; i += total {
		fn(i)
	}
}

// strideBuf returns an empty row slice with room for every index
// strideRows assigns to split — nil when there is none, as growing from
// nil gave.
func strideBuf(nRows, split, total int) []rdd.Row {
	if split >= nRows {
		return nil
	}
	return make([]rdd.Row, 0, (nRows-split+total-1)/total)
}

// vectorSlab returns a generator of n dim-long vectors carved, in order,
// from one slab: each is capacity-clamped, so an append to one reallocates
// instead of running into the next. A split's vectors cost one allocation.
func vectorSlab(n, dim int) func() []float64 {
	slab := make([]float64, n*dim)
	return func() []float64 {
		v := slab[:dim:dim]
		slab = slab[dim:]
		return v
	}
}

// setScale configures the context's logical scale so that physBytes of
// physical data represent inputBytes of logical data.
func setScale(ctx *rdd.Context, inputBytes, physBytes int64) {
	if physBytes <= 0 {
		physBytes = 1
	}
	ctx.LogicalScale = float64(inputBytes) / float64(physBytes)
	if ctx.LogicalScale < 1 {
		ctx.LogicalScale = 1
	}
}
