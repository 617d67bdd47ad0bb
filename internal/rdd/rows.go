// Package rdd implements the resilient-distributed-dataset abstraction the
// engine is built on: immutable, lazily computed, partitioned collections
// with lineage expressed as narrow and shuffle dependencies — the same model
// CHOPPER's host framework (Spark) exposes.
//
// Rows are dynamically typed (Row = any). Pair rows carry a key and a value;
// keys must be comparable Go values of type int, int64, string or float64
// (or any type implementing Keyer). Row sizes are estimated in bytes and
// scaled by the Context's LogicalScale so laptop-size physical datasets
// stand in for the paper's multi-GB logical inputs.
package rdd

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
)

// Row is a single record of an RDD.
type Row = any

// Pair is the record type of key-value RDDs.
type Pair struct {
	K any
	V any
}

// Keyer lets custom key types participate in hashing and ordering.
type Keyer interface {
	KeyHash() uint64
	KeyLess(other any) bool
}

// Sizer lets custom row or value types report their logical size in bytes.
type Sizer interface {
	LogicalBytes() int64
}

// ScaleInvariant marks row or value types whose size does NOT grow with the
// logical input size — aggregated combiners (per-key sums, fixed-size
// matrices) have the same size whether the input is 1 GB or 100 GB, so the
// engine must not multiply them by the context's LogicalScale.
type ScaleInvariant interface {
	ScaleInvariant() bool
}

// rowScalesWithInput reports whether a row's size should be multiplied by
// the logical scale. Pairs delegate to their value.
//
// The common values are matched before the interface case: a dynamic type
// that reaches it costs a runtime lookup, and the runtime adds the type to
// the case's cache on about one such call in 1024, chosen at random — an
// allocation that would make a task's allocation count vary run to run.
func rowScalesWithInput(r Row) bool {
	switch v := r.(type) {
	case Pair:
		return rowScalesWithInput(v.V)
	case float64, int, string, []float64, []any:
		return true
	case ScaleInvariant:
		return !v.ScaleInvariant()
	default:
		return true
	}
}

// LogicalRowsBytes estimates the logical size of rows: raw data rows scale
// with the input, aggregated (ScaleInvariant) rows do not.
func LogicalRowsBytes(rows []Row, scale float64) float64 {
	total := 0.0
	for _, r := range rows {
		b := float64(RowBytes(r))
		if rowScalesWithInput(r) {
			b *= scale
		}
		total += b
	}
	return total
}

// LogicalPairsBytes is LogicalRowsBytes for pair slices. It sizes each pair
// through PairBytes rather than RowBytes so the pairs are never boxed into
// interfaces — this runs once per shuffled record on the map side.
func LogicalPairsBytes(pairs []Pair, scale float64) float64 {
	total := 0.0
	for i := range pairs {
		b := float64(PairBytes(pairs[i]))
		if rowScalesWithInput(pairs[i].V) {
			b *= scale
		}
		total += b
	}
	return total
}

// KeyHash returns a stable 64-bit hash of a key. Supported key types are
// int, int32, int64, uint64, string, float64, bool and Keyer implementers.
// Unknown types hash their fmt representation (slow path, but total).
func KeyHash(k any) uint64 {
	switch v := k.(type) {
	case int:
		return mix(uint64(v))
	case int32:
		return mix(uint64(v))
	case int64:
		return mix(uint64(v))
	case uint64:
		return mix(v)
	case string:
		return fnv1aString(v)
	case float64:
		return mix(math.Float64bits(v))
	case bool:
		if v {
			return mix(1)
		}
		return mix(0)
	case Keyer:
		return v.KeyHash()
	default:
		h := fnv.New64a()
		_, _ = h.Write([]byte(fmt.Sprintf("%T:%v", k, k)))
		return h.Sum64()
	}
}

// fnv1aString is FNV-1a over the string's bytes without constructing a
// hash.Hash or copying into a []byte — byte-identical to fnv.New64a, but
// allocation-free and inlinable on the per-pair partitioning path.
func fnv1aString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix is a 64-bit finalizer (splitmix64) so that small sequential integers
// spread uniformly over partitions instead of striping.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CompareKeys orders two keys of the same supported type: -1, 0 or +1.
// Integer kinds compare with each other; mixing other kinds panics, as it
// indicates a workload bug.
func CompareKeys(a, b any) int {
	switch av := a.(type) {
	case int:
		return cmpInt64(int64(av), asInt64(b))
	case int32:
		return cmpInt64(int64(av), asInt64(b))
	case int64:
		return cmpInt64(av, asInt64(b))
	case string:
		bv, ok := b.(string)
		if !ok {
			panic(keyMismatch(a, b))
		}
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	case float64:
		bv, ok := b.(float64)
		if !ok {
			panic(keyMismatch(a, b))
		}
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
		return 0
	case Keyer:
		if av.KeyLess(b) {
			return -1
		}
		if bk, ok := b.(Keyer); ok && bk.KeyLess(a) {
			return 1
		}
		return 0
	default:
		panic(fmt.Sprintf("rdd: unsupported key type %T", a))
	}
}

func asInt64(b any) int64 {
	switch bv := b.(type) {
	case int:
		return int64(bv)
	case int32:
		return int64(bv)
	case int64:
		return bv
	default:
		panic(keyMismatch("integer", b))
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func keyMismatch(a, b any) string {
	return fmt.Sprintf("rdd: mismatched key types %T and %T", a, b)
}

// RowBytes estimates the in-memory/serialized size of a row in bytes.
// Estimates follow typical JVM-serialized sizes so shuffle accounting has
// realistic proportions.
func RowBytes(r Row) int64 {
	switch v := r.(type) {
	case nil:
		return 8
	case bool, int8, uint8:
		return 8
	case int, int32, int64, uint64, float64, float32:
		return 8
	case string:
		return int64(len(v)) + 8
	case []byte:
		return int64(len(v)) + 16
	case []float64:
		return int64(8*len(v)) + 16
	case []int:
		return int64(8*len(v)) + 16
	case []int64:
		return int64(8*len(v)) + 16
	case Pair:
		return PairBytes(v)
	case []any:
		var sum int64 = 24
		for _, e := range v {
			sum += RowBytes(e)
		}
		return sum
	case [][]any:
		// Inner slices are sized in place: RowBytes(e) would box each one.
		var sum int64 = 24
		for _, e := range v {
			sum += 24
			for _, x := range e {
				sum += RowBytes(x)
			}
		}
		return sum
	case []Pair:
		var sum int64 = 24
		for _, e := range v {
			sum += RowBytes(e)
		}
		return sum
	case Sizer:
		return v.LogicalBytes()
	default:
		// Fallback: size of the printed form. Total but slow; workloads
		// should implement Sizer for custom hot types.
		return int64(len(fmt.Sprintf("%v", v))) + 16
	}
}

// PairBytes is RowBytes for a concrete Pair, avoiding the interface boxing
// RowBytes(Row) would force on every call (K and V are already interfaces,
// so sizing them costs nothing extra).
func PairBytes(p Pair) int64 {
	return RowBytes(p.K) + RowBytes(p.V) + 8
}

// RowsBytes sums RowBytes over a slice of rows.
func RowsBytes(rows []Row) int64 {
	var sum int64
	for _, r := range rows {
		sum += RowBytes(r)
	}
	return sum
}

// PairsBytes sums RowBytes over a slice of pairs.
func PairsBytes(pairs []Pair) int64 {
	var sum int64
	for i := range pairs {
		sum += PairBytes(pairs[i])
	}
	return sum
}

// FormatKey renders a key for config files and debugging.
func FormatKey(k any) string {
	switch v := k.(type) {
	case int:
		return strconv.Itoa(v)
	case int64:
		return strconv.FormatInt(v, 10)
	case string:
		return v
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	default:
		return fmt.Sprintf("%v", v)
	}
}
