package rdd

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Partitioner assigns pair keys to partitions. Two RDDs partitioned by the
// same Partitioner instance (same Identity) are co-partitioned: equal keys
// live in equal partition ids, which lets joins skip the shuffle and lets
// the co-partition-aware scheduler pin matching partitions to one node.
type Partitioner interface {
	NumPartitions() int
	PartitionFor(key any) int
	// Name is the scheme name used in workload configuration files:
	// "hash" or "range" for the built-ins.
	Name() string
	// Identity distinguishes partitioner instances. Co-partitioning is
	// decided on Identity equality, mirroring Spark's reference equality.
	Identity() int64
}

var partitionerIDs atomic.Int64

// NextPartitionerID allocates a process-unique partitioner identity.
func NextPartitionerID() int64 { return partitionerIDs.Add(1) }

// HashPartitioner is Spark's default scheme: partition = hash(key) mod n.
// It is insensitive to data content but maps all duplicates of a hot key to
// one partition, so it skews under heavy-hitter key distributions.
type HashPartitioner struct {
	n  int
	id int64
}

// NewHashPartitioner returns a hash partitioner over n partitions.
func NewHashPartitioner(n int) *HashPartitioner {
	if n <= 0 {
		panic(fmt.Sprintf("rdd: hash partitioner needs n > 0, got %d", n))
	}
	return &HashPartitioner{n: n, id: NextPartitionerID()}
}

func (p *HashPartitioner) NumPartitions() int { return p.n }
func (p *HashPartitioner) Name() string       { return "hash" }
func (p *HashPartitioner) Identity() int64    { return p.id }
func (p *HashPartitioner) PartitionFor(key any) int {
	return int(KeyHash(key) % uint64(p.n))
}

// RangePartitioner divides the key space into n contiguous ranges with
// approximately equal record counts, determined by sampling the data
// (Spark samples the RDD passed to the constructor). It balances load under
// skewed distributions but depends on the sample reflecting the contents.
type RangePartitioner struct {
	n      int
	id     int64
	bounds []any // len n-1, sorted ascending; partition i <= bounds[i]
}

// NewRangePartitionerFromSample builds a range partitioner over n partitions
// from a sample of keys (Spark's reservoir-sample equivalent). The sample is
// sorted and n-1 equally spaced split points become the range bounds.
// An empty sample yields a degenerate partitioner sending all keys to 0.
func NewRangePartitionerFromSample(n int, sample []any) *RangePartitioner {
	if n <= 0 {
		panic(fmt.Sprintf("rdd: range partitioner needs n > 0, got %d", n))
	}
	keys := make([]any, len(sample))
	copy(keys, sample)
	sort.Slice(keys, func(i, j int) bool { return CompareKeys(keys[i], keys[j]) < 0 })
	var bounds []any
	if len(keys) > 0 {
		for i := 1; i < n; i++ {
			idx := i * len(keys) / n
			if idx >= len(keys) {
				idx = len(keys) - 1
			}
			bounds = append(bounds, keys[idx])
		}
	}
	return &RangePartitioner{n: n, id: NextPartitionerID(), bounds: bounds}
}

// NewRangePartitionerWithBounds builds a range partitioner from explicit
// split points, trusting the caller that bounds are sorted, mutually
// comparable and len(bounds) <= n-1. NewRangePartitionerFromSample enforces
// those properties; this constructor exists for callers that already hold
// valid bounds (and for the plan verifier's tests, which deliberately build
// invalid ones).
func NewRangePartitionerWithBounds(n int, bounds []any) *RangePartitioner {
	if n <= 0 {
		panic(fmt.Sprintf("rdd: range partitioner needs n > 0, got %d", n))
	}
	b := make([]any, len(bounds))
	copy(b, bounds)
	return &RangePartitioner{n: n, id: NextPartitionerID(), bounds: b}
}

func (p *RangePartitioner) NumPartitions() int { return p.n }
func (p *RangePartitioner) Name() string       { return "range" }
func (p *RangePartitioner) Identity() int64    { return p.id }

// Bounds exposes the split points (for tests and diagnostics).
func (p *RangePartitioner) Bounds() []any { return p.bounds }

func (p *RangePartitioner) PartitionFor(key any) int {
	return p.search(func(bound any) int { return CompareKeys(bound, key) })
}

// search binary-searches the first bound cmp does not order below the key.
func (p *RangePartitioner) search(cmp func(bound any) int) int {
	lo, hi := 0, len(p.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if cmp(p.bounds[mid]) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= p.n {
		lo = p.n - 1
	}
	return lo
}

// partitionInt is p.PartitionFor(int(k)) without boxing the key: the
// built-in partitioners route an int key directly — by KeyHash's int hash,
// or by CompareKeys' integer order against the range bounds — and any
// other partitioner gets the boxed key.
func partitionInt(p Partitioner, k int64) int {
	switch p := p.(type) {
	case *HashPartitioner:
		return int(mix(uint64(k)) % uint64(p.n))
	case *RangePartitioner:
		return p.search(func(bound any) int {
			switch b := bound.(type) {
			case int:
				return cmpInt64(int64(b), k)
			case int32:
				return cmpInt64(int64(b), k)
			case int64:
				return cmpInt64(b, k)
			}
			return CompareKeys(bound, int(k))
		})
	}
	return p.PartitionFor(int(k))
}

// SchemeName is a partitioner kind used by the optimizer and config files.
type SchemeName string

// Partitioner scheme names.
const (
	SchemeHash  SchemeName = "hash"
	SchemeRange SchemeName = "range"
)

// ValidScheme reports whether s names a built-in partitioner scheme.
func ValidScheme(s SchemeName) bool { return s == SchemeHash || s == SchemeRange }
