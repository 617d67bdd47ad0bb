package chopper

import (
	"chopper/internal/workloads"
)

// BuiltinApp wraps one of the built-in workloads (the paper's kmeans, pca
// and sql, or the extension pagerank) as a tunable App. Shrink controls
// the physical dataset size (logical size is the paper's Table I value
// unless overridden). An app run again replays the source partitions its
// earlier runs recorded, to the same bits.
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
func (b *BuiltinApp) Shrink(factor int) { workloads.Shrink(b.w, factor) }

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
