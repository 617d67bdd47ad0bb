package workloads

import "testing"

// TestStrideBufHoldsExactlyTheStride: the presized slice has room for every
// index strideRows hands the split and not one more, and stays nil for a
// split without rows.
func TestStrideBufHoldsExactlyTheStride(t *testing.T) {
	for nRows := 0; nRows <= 40; nRows++ {
		for total := 1; total <= 45; total++ {
			for split := 0; split < total; split++ {
				n := 0
				strideRows(nRows, split, total, func(int) { n++ })
				buf := strideBuf(nRows, split, total)
				if len(buf) != 0 || cap(buf) != n || (buf == nil) != (n == 0) {
					t.Fatalf("strideBuf(%d, %d, %d): len %d cap %d nil %v, want room for %d", nRows, split, total, len(buf), cap(buf), buf == nil, n)
				}
			}
		}
	}
}
