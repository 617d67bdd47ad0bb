package rdd

import (
	"fmt"
	"sync"
)

// Dependency is an edge in the RDD lineage graph.
type Dependency interface {
	Parent() *RDD
}

// NarrowDep is a dependency where child split s reads exactly split s of
// its parent (map, filter, co-partitioned join...). Narrow dependencies
// pipeline inside a single stage.
type NarrowDep struct {
	P *RDD
}

// Parent returns the parent RDD.
func (d *NarrowDep) Parent() *RDD { return d.P }

// ShuffleDep is a wide dependency: every child partition may read from every
// parent partition, via the shuffle subsystem. It forms a stage boundary.
//
// Part is deliberately mutable until the producing map stage starts: this is
// the hook CHOPPER uses to re-partition a stage from its configuration file
// without touching the application (paper Section III-A).
type ShuffleDep struct {
	P *RDD
	// Part decides the reduce-side partitioning. May be swapped by the
	// StageConfigurator before the map stage executes.
	Part Partitioner
	// Agg optionally combines values per key. When MapSideCombine is set the
	// combine also runs in map tasks, shrinking shuffle payloads.
	Agg *Aggregator
	// Fixed marks a user-specified partitioning that the optimizer must not
	// silently change (it may only insert an extra repartition phase).
	Fixed bool
	// ShuffleID is assigned by the DAG scheduler at job submission.
	ShuffleID int
	// WantRange asks the scheduler to materialize a sampled RangePartitioner
	// for this dependency before the map stage runs (set by the optimizer
	// when the chosen scheme is "range" — bounds need parent data).
	WantRange bool
}

// Parent returns the parent RDD.
func (d *ShuffleDep) Parent() *RDD { return d.P }

// Aggregator describes combine semantics for a shuffle (Spark's Aggregator).
//
// The F64 hooks are optional unboxed twins of the interface functions: when
// all three are set and the pairs flowing through a combine kernel are
// int-keyed with float64 values, the columnar kernels (PartitionPairsCol,
// MergeReduceColN) accumulate in raw float64 segments and box only once
// per distinct key on output, instead of once per record. Under any other
// key type the boxed tier folds through the interface functions alone. SumAggregator is the one constructor
// that sets them and (*RDD).SumByKey the method that shuffles under it —
// how the SQL and PageRank built-ins sum; ReduceByKey's func(a, b any) any
// cannot carry them. The hooks MUST compute exactly what
// their boxed counterparts compute (same operations in the same order —
// float addition is not associative), or the engine and the single-threaded
// oracle diverge.
type Aggregator struct {
	Create         func(v any) any
	MergeValue     func(acc any, v any) any
	MergeCombiners func(a, b any) any
	MapSideCombine bool

	CreateF64         func(v float64) float64
	MergeValueF64     func(acc, v float64) float64
	MergeCombinersF64 func(a, b float64) float64
}

// SumAggregator combines float64 values by addition.
func SumAggregator() *Aggregator {
	return &Aggregator{
		Create:         func(v any) any { return v },
		MergeValue:     func(acc, v any) any { return acc.(float64) + v.(float64) },
		MergeCombiners: func(a, b any) any { return a.(float64) + b.(float64) },
		MapSideCombine: true,

		CreateF64:         func(v float64) float64 { return v },
		MergeValueF64:     func(acc, v float64) float64 { return acc + v },
		MergeCombinersF64: func(a, b float64) float64 { return a + b },
	}
}

// ReduceAggregator builds an aggregator from a binary reduce function,
// combining map-side like reduceByKey.
func ReduceAggregator(f func(a, b any) any) *Aggregator {
	return &Aggregator{
		Create:         func(v any) any { return v },
		MergeValue:     f,
		MergeCombiners: f,
		MapSideCombine: true,
	}
}

// GroupAggregator collects values into a []any, like groupByKey.
// Map-side combine is disabled (grouping map-side saves nothing).
func GroupAggregator() *Aggregator {
	return &Aggregator{
		Create:     func(v any) any { return []any{v} },
		MergeValue: func(acc, v any) any { return append(acc.([]any), v) },
		MergeCombiners: func(a, b any) any {
			return append(a.([]any), b.([]any)...)
		},
	}
}

// ComputeFn materializes one partition of an RDD given the materialized
// inputs of each dependency (same order as Deps). For a NarrowDep the input
// is the parent split's rows; for a ShuffleDep it is the merged []Row of
// Pair records for this reduce partition.
//
// The outer inputs slice is valid only during the call — the engine reuses
// its backing array for the task's next RDD — so never retain or capture
// it; retaining an inner slice is fine.
//
// Inputs are read-only. The engine hands a narrow child its parent's rows
// without copying them, so an input may alias a partition the task keeps
// memoised for another reader, or one the cache holds for later jobs:
// never assign to an input's elements, and copy before sorting. Two things
// stay safe: returning an input or a sub-slice of it as the output, and
// appending to an input — its capacity is clamped to its length, so the
// append reallocates.
type ComputeFn func(split int, inputs [][]Row) []Row

// RDD is an immutable, partitioned, lazily evaluated dataset.
type RDD struct {
	ID   int
	Ctx  *Context
	Op   string // operator name ("map", "reduceByKey", ...) used in signatures
	Deps []Dependency

	// NumParts is the partition count. For shuffle-input RDDs it must equal
	// the shuffle dependency's partitioner count (kept in sync by the
	// scheduler when the configurator retunes a stage).
	NumParts int

	// Part is the partitioner of this RDD's output when known (after a
	// shuffle or partitionBy); nil otherwise. Join uses it to go narrow.
	Part Partitioner

	Compute ComputeFn

	// Typed, when non-nil, computes a partition as columns (see typed.go):
	// set by the typed producers there, whose Compute boxes what it emits.
	// An evaluator that only folds the rows may call it instead.
	Typed TypedFn

	// CostFactor scales the CPU cost of this operator per logical byte of
	// its input (1.0 = baseline scan). The executor sums factors along the
	// pipelined chain of a stage.
	CostFactor float64

	// Cached requests partition persistence in the block-manager memory
	// store after first computation.
	Cached bool

	// Gen, when non-nil, marks a re-splittable source: the scheduler may
	// change NumParts before first use and rows are generated per split.
	Gen func(split, numSplits int) []Row

	// SourceBytes is the logical input size of a source RDD (bytes); used
	// for locality and input accounting. Zero for derived RDDs.
	SourceBytes int64

	// PrefLocs optionally reports preferred executor nodes for a split
	// (storage block locations for sources; set by the engine for caches).
	PrefLocs func(split int) []string

	// Fixed marks user-pinned partitioning on sources.
	Fixed bool

	// Recount recomputes the partition count implied by the dependencies
	// (nil for sources, whose counts are authoritative). The scheduler calls
	// PropagateCounts after retuning a stage so narrow descendants follow.
	Recount func() int
}

// PropagateCounts refreshes NumParts across the lineage of final after the
// scheduler has retuned sources or shuffle partitioners. Parents are
// refreshed before children.
func PropagateCounts(final *RDD) {
	lineage := final.Lineage()
	// Lineage is child-before-parent (DFS from final); walk in reverse.
	for i := len(lineage) - 1; i >= 0; i-- {
		r := lineage[i]
		if r.Recount != nil {
			if n := r.Recount(); n > 0 {
				r.NumParts = n
			}
		}
	}
}

// JobRunner executes a job over the final RDD of an action, returning one
// result per partition. Implemented by the DAG scheduler (internal/dag);
// declared here so actions don't import the scheduler.
type JobRunner interface {
	RunJob(target *RDD, fn func(split int, rows []Row) (any, error)) ([]any, error)
}

// Context creates and tracks RDDs, and routes actions to the JobRunner.
type Context struct {
	mu     sync.Mutex
	nextID int

	// DefaultParallelism mirrors spark.default.parallelism: the partition
	// count used when an operation doesn't specify one.
	DefaultParallelism int

	// LogicalScale multiplies estimated physical row bytes to obtain logical
	// bytes, letting small in-process datasets stand in for the paper's
	// multi-GB inputs. 1.0 means physical == logical.
	LogicalScale float64

	runner JobRunner
}

// NewContext returns a context with the given default parallelism.
// The runner must be attached with SetRunner before any action runs.
func NewContext(defaultParallelism int) *Context {
	if defaultParallelism <= 0 {
		defaultParallelism = 2
	}
	return &Context{DefaultParallelism: defaultParallelism, LogicalScale: 1.0}
}

// SetRunner attaches the job runner (the DAG scheduler).
func (c *Context) SetRunner(r JobRunner) { c.runner = r }

func (c *Context) newID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

func (c *Context) newRDD(op string, numParts int, deps []Dependency, compute ComputeFn) *RDD {
	if numParts <= 0 {
		panic(fmt.Sprintf("rdd: %s with %d partitions", op, numParts))
	}
	return &RDD{
		ID:         c.newID(),
		Ctx:        c,
		Op:         op,
		Deps:       deps,
		NumParts:   numParts,
		Compute:    compute,
		CostFactor: 1.0,
	}
}

// Parallelize distributes rows over n partitions (n <= 0 uses the default
// parallelism). The source is not re-splittable: the data is pinned.
func (c *Context) Parallelize(rows []Row, n int) *RDD {
	if n <= 0 {
		n = c.DefaultParallelism
	}
	if n > len(rows) && len(rows) > 0 {
		n = len(rows)
	}
	if len(rows) == 0 {
		n = 1
	}
	data := make([]Row, len(rows))
	copy(data, rows)
	r := c.newRDD("parallelize", n, nil, nil)
	r.Compute = func(split int, _ [][]Row) []Row {
		lo := split * len(data) / r.NumParts
		hi := (split + 1) * len(data) / r.NumParts
		out := make([]Row, hi-lo)
		copy(out, data[lo:hi])
		return out
	}
	r.SourceBytes = int64(float64(RowsBytes(data)) * c.LogicalScale)
	r.Fixed = true
	return r
}

// Generate creates a re-splittable source of n partitions whose rows come
// from gen(split, numSplits). gen must be deterministic and produce a
// partition-count-independent dataset overall (e.g. hash rows to splits),
// so the optimizer can retune the split count. n <= 0 uses the default
// parallelism and leaves the source tunable; explicit n pins it.
func (c *Context) Generate(name string, n int, logicalBytes int64, gen func(split, numSplits int) []Row) *RDD {
	fixed := n > 0
	if n <= 0 {
		n = c.DefaultParallelism
	}
	r := c.newRDD(name, n, nil, nil)
	r.Gen = gen
	r.Fixed = fixed
	r.SourceBytes = logicalBytes
	r.Compute = func(split int, _ [][]Row) []Row { return gen(split, r.NumParts) }
	return r
}

// defaultPartitioner returns the partitioner used when the caller passed nil:
// a hash partitioner over DefaultParallelism partitions (Spark's behavior
// with spark.default.parallelism set).
func (c *Context) defaultPartitioner() Partitioner {
	return NewHashPartitioner(c.DefaultParallelism)
}

// Lineage returns all RDDs reachable from r (r first), depth-first,
// de-duplicated. Useful for diagnostics and signatures.
func (r *RDD) Lineage() []*RDD {
	seen := map[int]bool{}
	var out []*RDD
	var walk func(*RDD)
	walk = func(n *RDD) {
		if seen[n.ID] {
			return
		}
		seen[n.ID] = true
		out = append(out, n)
		for _, d := range n.Deps {
			walk(d.Parent())
		}
	}
	walk(r)
	return out
}

// String renders a short description.
func (r *RDD) String() string {
	return fmt.Sprintf("RDD(%d %s x%d)", r.ID, r.Op, r.NumParts)
}
