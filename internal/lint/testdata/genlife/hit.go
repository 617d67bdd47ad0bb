package glfix

import "chopper/internal/rdd"

// ColView mirrors the real arena view: its F64 column aliases the
// writing map task's arena segment and dies with the generation.
type ColView struct {
	F64 []float64
}

// NodeBytes mirrors the real shuffle accounting row: a pure value type.
type NodeBytes struct {
	Node  string
	Bytes int64
}

// Manager mirrors the real shuffle manager: ReduceInput hands out views
// backed by generation-scoped arena memory, while ReduceNodeBytes builds
// a fresh profile per call that the caller owns.
type Manager struct {
	outputs [][]ColView
}

func (m *Manager) ReduceInput(reduce int) []ColView {
	return m.outputs[reduce]
}

func (m *Manager) ReduceNodeBytes(reduce int) []NodeBytes {
	return make([]NodeBytes, 1)
}

// tracker is a heap-lived consumer structure.
type tracker struct {
	views []ColView
	rows  []NodeBytes
}

// record stores the live views into a heap-lived field without a deep
// copy — retirement frees the arenas under them.
func (t *tracker) record(m *Manager, reduce int) {
	views := m.ReduceInput(reduce)
	t.views = views
}

// publish sends the live views across a channel boundary.
func publish(m *Manager, reduce int, ch chan []ColView) {
	ch <- m.ReduceInput(reduce)
}

// spill hands the live views to a goroutine that outlives the read.
func spill(m *Manager, reduce int, sink func(float64)) {
	views := m.ReduceInput(reduce)
	go func() {
		var sum float64
		for _, v := range views {
			for _, x := range v.F64 {
				sum += x
			}
		}
		sink(sum)
	}()
}

// arenaSink is a heap-lived consumer of arena columns.
type arenaSink struct {
	col []float64
}

// retainArena stores an arena column into a heap-lived field without a
// deep copy — retirement frees the backing segment under it.
func (s *arenaSink) retainArena(m *Manager, reduce int) {
	views := m.ReduceInput(reduce)
	s.col = views[0].F64
}

// ReduceView mirrors the real reduce view: BlockInto fills dst with block
// i's view, and Refs hands out the blocks by reference; both alias the
// writing map tasks' arenas.
type ReduceView struct {
	blocks []ColView
	refs   []rdd.BlockRef
}

func (v ReduceView) BlockInto(i int, dst *ColView) { *dst = v.blocks[i] }

func (v ReduceView) Refs() []rdd.BlockRef { return v.refs }

// keeper is a heap-lived consumer of one block.
type keeper struct {
	col  []float64
	blk  ColView
	refs []rdd.BlockRef
	view rdd.ColBlock
}

// keepBlock fills a local view, then stores its column into a heap-lived
// field without a deep copy.
func (k *keeper) keepBlock(v ReduceView) {
	var b ColView
	v.BlockInto(0, &b)
	k.col = b.F64
}

// fillField has BlockInto write the view straight into a heap-lived field.
func (k *keeper) fillField(v ReduceView) {
	v.BlockInto(0, &k.blk)
}

// keepArenaBlock does keepBlock's store through an rdd arena's BlockInto.
func (k *keeper) keepArenaBlock(c *rdd.ColBuckets) {
	var b rdd.ColBlock
	c.BlockInto(0, &b)
	k.col = b.F64
}

// keepRefs keeps a partition's refs, resliced, in a heap-lived field: the
// refs hold the arenas retirement releases.
func (k *keeper) keepRefs(v ReduceView) {
	refs := v.Refs()
	k.refs = refs[1:]
}

// fillFromRef has a ref write its view straight into a heap-lived field.
func (k *keeper) fillFromRef(v ReduceView) {
	v.Refs()[0].Into(&k.view)
}
