package glfix

import "chopper/internal/rdd"

// keepProfile retains a locality profile as is: ReduceNodeBytes computes
// it per call and the caller owns the slice, so nothing aliases
// generation-scoped memory.
func (t *tracker) keepProfile(m *Manager, reduce int) {
	t.rows = m.ReduceNodeBytes(reduce)
}

// forward returns the live views — the documented zero-copy contract:
// validity ends when the generation retires, and the caller is the next
// retaining site the rule checks.
func forward(m *Manager, reduce int) []ColView {
	return m.ReduceInput(reduce)
}

// snapshotArena deep-copies an arena column before retaining it: the
// copy owns fresh memory and survives retirement.
func (s *arenaSink) snapshotArena(m *Manager, reduce int) {
	views := m.ReduceInput(reduce)
	cp := make([]float64, len(views[0].F64))
	copy(cp, views[0].F64)
	s.col = cp
}

// foldArena only reads scalar elements out of the column; no reference
// to the arena memory survives the call.
func foldArena(m *Manager, reduce int) float64 {
	var sum float64
	for _, v := range m.ReduceInput(reduce) {
		for _, x := range v.F64 {
			sum += x
		}
	}
	return sum
}

// sumBlock fills a local view and folds its scalars; nothing of it
// outlives the call.
func sumBlock(v ReduceView) float64 {
	var b ColView
	v.BlockInto(0, &b)
	var sum float64
	for _, x := range b.F64 {
		sum += x
	}
	return sum
}

// copyBlock deep-copies a filled view's column before retaining it.
func (k *keeper) copyBlock(v ReduceView) {
	var b ColView
	v.BlockInto(0, &b)
	k.col = append([]float64(nil), b.F64...)
}

// mergeRefs hands a partition's refs to a reduce kernel, which reads the
// blocks in place and returns rows of its own.
func mergeRefs(w *rdd.Scratch, v ReduceView) []rdd.Row {
	return w.MergeReduceRefs(v.Refs(), nil)
}

// countPositions reads the refs' entries, pure values, into a local sum.
func countPositions(v ReduceView) int {
	n := 0
	for _, b := range v.Refs().Blocks {
		n += int(b.Pos)
	}
	return n
}

// entryKeeper is a heap-lived holder of one index entry.
type entryKeeper struct {
	first rdd.BlockRef
}

// keepFirst retains one index entry: a copy of its map task and position,
// which names the block without holding its arena.
func (k *entryKeeper) keepFirst(v ReduceView) {
	k.first = v.Refs().Blocks[0]
}
