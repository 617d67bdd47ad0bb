package rdd

import (
	"fmt"
	"testing"
)

// The shuffle kernels (PartitionPairsCol, MergeReduceColN, the payload
// sizers) have their allocation counts pinned by
// TestWarmKernelsAllocateOnlyTheirOutput and their times measured by
// bench/'s per-layer rdd.* rows; only the key hash, which neither covers on
// its own, is benchmarked here.

func BenchmarkKeyHashString(b *testing.B) {
	keys := make([]any, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KeyHash(keys[i%len(keys)])
	}
}

func BenchmarkKeyHashInt(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KeyHash(i)
	}
}
