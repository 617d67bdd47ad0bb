package chopper

import (
	"chopper/internal/workloads"
)

// BuiltinApp wraps one of the paper's three SparkBench workloads (kmeans,
// pca, sql) as a tunable App. Rows controls the physical dataset size
// (logical size is the paper's Table I value unless overridden).
type BuiltinApp struct {
	w     workloads.Workload
	bytes int64
	// LastResult holds the checksum/details of the most recent Run.
	LastResult map[string]float64
}

// Builtin returns a built-in workload by name: the paper's "kmeans", "pca"
// and "sql", or the extension workload "pagerank".
func Builtin(name string) (*BuiltinApp, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return &BuiltinApp{w: w, bytes: w.DefaultInputBytes()}, nil
}

// Name implements App.
func (b *BuiltinApp) Name() string { return b.w.Name() }

// InputBytes implements App.
func (b *BuiltinApp) InputBytes() int64 { return b.bytes }

// SetInputBytes overrides the logical input size.
func (b *BuiltinApp) SetInputBytes(n int64) { b.bytes = n }

// Shrink scales the physical dataset down by the given factor for fast
// demonstration runs (logical size and cost model are unchanged).
func (b *BuiltinApp) Shrink(factor int) {
	if factor <= 1 {
		return
	}
	switch w := b.w.(type) {
	case *workloads.KMeans:
		w.Rows /= factor
	case *workloads.PCA:
		w.Rows /= factor
	case *workloads.SQL:
		w.Orders /= factor
		w.Customers /= factor
	case *workloads.PageRank:
		w.Pages /= factor
	}
}

// Run implements App.
func (b *BuiltinApp) Run(sess *Session, inputBytes int64) error {
	res, err := b.w.Run(sess.Context(), inputBytes)
	if err != nil {
		return err
	}
	b.LastResult = map[string]float64{"checksum": res.Checksum}
	for k, v := range res.Details {
		b.LastResult[k] = v
	}
	return nil
}
