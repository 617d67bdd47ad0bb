package workloads

import (
	"slices"
	"sync"

	"chopper/internal/rdd"
)

// maxLayouts bounds the source layouts — a source's name and split count —
// one workload value records. A value keeps the first ones it records and
// generates every later one afresh, run after run: the profiling grid
// revisits its partition counts in a cycle, which a least-recently-used
// bound would always miss. Eight holds SQL's two sources at four
// partition counts (a default run, two profiling counts and a tuned run)
// and KMeans' one source at eight.
const maxLayouts = 8

// genParams lists, zero-padded, the fields a value's generators read: the
// recorded layouts are valid while these stay as they were.
type genParams [4]int64

// sourceMemo lets a workload value replay its sources' partitions instead
// of synthesising them on every run. It lives and dies with the value. A
// value's first run generates as if there were no memo and records
// nothing; every later run records each partition of a layout it
// generates, and replays the partitions an earlier run recorded. The
// generators are deterministic, so the rows, their order, every simulated
// time and every result stay bit-identical. Recorded rows are shared by
// every later run, and by concurrent ones, without a copy: the read-only
// contract of rdd.ComputeFn's inputs is what keeps them intact. A change
// to the generators' parameters (Shrink included) drops every layout and
// makes the next run a first one again.
type sourceMemo struct {
	mu      sync.Mutex
	params  genParams
	runs    int      // runs begun under params
	layouts []layout // at most maxLayouts, in the order first recorded
}

// layout is one source's recorded partitions at one split count.
type layout struct {
	source string
	splits int
	parts  []part // by split
}

// part is one recorded partition: a Generate source's rows, or a
// GenerateFloatPairs source's columns.
type part struct {
	ok   bool
	rows []rdd.Row
	kind rdd.ColKind
	keys []int64
	vals []float64
}

// wrap begins a run of the value over srcs, the sources its Run just built
// from generators reading exactly params. On a repeat run each source's
// Compute, and its Typed compute if it has one, go through the memo; the
// generator itself (src.Gen) is left as it is.
func (m *sourceMemo) wrap(params genParams, srcs ...*rdd.RDD) {
	m.mu.Lock()
	if params != m.params {
		m.params, m.runs, m.layouts = params, 0, nil
	}
	m.runs++
	first := m.runs == 1
	m.mu.Unlock()
	if first {
		return // a value run once costs nothing
	}
	for _, src := range srcs {
		if typed := src.Typed; typed != nil {
			src.Typed = func(split int, in [][]rdd.Row, dst *rdd.ColBlock) {
				p, record := m.take(src.Op, split, src.NumParts)
				if p.ok {
					*dst = rdd.ColBlock{Kind: p.kind, Int: append(dst.Int[:0], p.keys...), F64: append(dst.F64[:0], p.vals...)}
					return
				}
				typed(split, in, dst)
				if record {
					m.keep(src.Op, split, src.NumParts, part{kind: dst.Kind, keys: slices.Clone(dst.Int), vals: slices.Clone(dst.F64)})
				}
			}
			// As GenerateFloatPairs derives it: the block, boxed.
			src.Compute = func(split int, in [][]rdd.Row) []rdd.Row {
				var blk rdd.ColBlock
				src.Typed(split, in, &blk)
				return blk.Rows()
			}
			continue
		}
		compute := src.Compute
		src.Compute = func(split int, in [][]rdd.Row) []rdd.Row {
			p, record := m.take(src.Op, split, src.NumParts)
			if p.ok {
				return p.rows
			}
			rows := compute(split, in)
			if record {
				m.keep(src.Op, split, src.NumParts, part{rows: slices.Clip(rows)})
			}
			return rows
		}
	}
}

// take returns split's recorded partition of source at splits when there
// is one; otherwise record tells whether the layout is recorded, so the
// caller should keep the partition it generates.
func (m *sourceMemo) take(source string, split, splits int) (p part, record bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if l := m.find(source, splits); l != nil {
		return l.parts[split], !l.parts[split].ok
	}
	if len(m.layouts) == maxLayouts {
		return part{}, false
	}
	m.layouts = append(m.layouts, layout{source: source, splits: splits, parts: make([]part, splits)})
	return part{}, true
}

// keep records p as split's partition of source at splits, unless a
// concurrent run recorded it first.
func (m *sourceMemo) keep(source string, split, splits int, p part) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if l := m.find(source, splits); l != nil && !l.parts[split].ok {
		p.ok = true
		l.parts[split] = p
	}
}

// find returns the recorded layout of source at splits, or nil. The
// caller holds m.mu.
func (m *sourceMemo) find(source string, splits int) *layout {
	for i := range m.layouts {
		if l := &m.layouts[i]; l.source == source && l.splits == splits {
			return l
		}
	}
	return nil
}

// RecordedForTest calls fn with every partition w's memo has recorded, in
// layout then split order; a recorded block comes boxed, as its source's
// Compute returns it. No run of w may be in flight.
func RecordedForTest(w Workload, fn func(source string, split, splits int, rows []rdd.Row)) {
	m := memoOf(w)
	m.mu.Lock()
	layouts := slices.Clone(m.layouts)
	m.mu.Unlock()
	for _, l := range layouts {
		for split, p := range l.parts {
			if !p.ok {
				continue
			}
			rows := p.rows
			if p.kind != rdd.ColNone {
				blk := rdd.ColBlock{Kind: p.kind, Int: p.keys, F64: p.vals}
				rows = blk.Rows()
			}
			fn(l.source, split, l.splits, rows)
		}
	}
}

// memoOf returns the built-in w's source memo.
func memoOf(w Workload) *sourceMemo {
	switch w := w.(type) {
	case *KMeans:
		return &w.memo
	case *PCA:
		return &w.memo
	case *SQL:
		return &w.memo
	case *PageRank:
		return &w.memo
	}
	panic("workloads: not a built-in")
}
