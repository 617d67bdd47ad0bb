// Package shuffle implements the engine's shuffle subsystem: a map-output
// tracker holding the blocks each map task wrote per reduce partition,
// byte accounting (payload plus per-block overhead), and the locality
// queries the co-partition-aware scheduler uses to place reduce tasks where
// their input lives.
//
// Every (map task x reduce partition) pair produces one block; each block
// costs a fixed overhead (headers, index entries, framing) on top of its
// payload. This is why total shuffle bytes grow with the partition count
// even at constant payload — the effect behind the paper's Fig. 4.
//
// Concurrency: the Manager's own lock only guards the shuffle-id table;
// each shuffle carries its own mutex, so tasks of different shuffles never
// contend.
//
// The reduce side reads through one derived structure per shuffle, the
// reduce-major index: the stored map outputs transposed, by the first read
// after the last write, into a node x reduce byte matrix and a
// reduce -> non-empty-blocks table. A reduce task then costs a column read
// and a sub-slice instead of a walk over every map output, so a P x P job
// stops paying P² host time for blocks that hold nothing (they are still
// charged, from counts). One invalidation rule: any PutMapOutput, Register
// or RetireExcept on the shuffle drops its index. A built index is
// immutable, so readers use it outside the lock. It is a layout, not a
// cache of answers — built once, read numReduce times, no hit/miss,
// eviction or generation counter; a memo of per-(shuffle, reduce) answers
// would never hit, because the engine asks each of them once.
package shuffle

import (
	"fmt"
	"slices"
	"sync"

	"chopper/internal/rdd"
)

// MapOutput is the complete shuffle write of one map task: either the
// columnar arena every reduce bucket slices out of (Cols) or the boxed
// fallback buckets (Boxed), plus the per-reduce logical payload sizes.
// Storing the arena itself — not a materialized per-bucket block — keeps
// the manager's footprint at O(maps + reduces) headers per shuffle
// instead of O(maps x reduces): with wide shuffles the ~150-byte view
// structs would otherwise dwarf the data they point at.
type MapOutput struct {
	// Cols is the map task's columnar arena (nil when the task fell back
	// to boxed pairs). Bucket r of the arena is reduce partition r's input.
	Cols *rdd.ColBuckets
	// Boxed holds the per-reduce boxed buckets of a fallback map task
	// (nil when Cols is set).
	Boxed [][]rdd.Pair
	// Payloads is the logical serialized payload size per reduce bucket;
	// nil means every block is empty (a map task without rows).
	Payloads []int64
}

// NodeBytes is one entry of a reduce partition's locality profile: how many
// input bytes (payload + overhead) live on one map node. Slices of NodeBytes
// are always sorted by node name, so iteration order is deterministic.
type NodeBytes struct {
	Node  string
	Bytes int64
}

type mapOutput struct {
	node string
	out  MapOutput
}

// blockInto writes reduce bucket r's zero-copy view into dst, fully
// overwriting it: the arena bucket view for columnar outputs, or a
// ColNone wrapper over the boxed bucket.
func (mo *mapOutput) blockInto(r int, dst *rdd.ColBlock) {
	if mo.out.Cols != nil {
		mo.out.Cols.BucketInto(r, dst)
		return
	}
	*dst = rdd.ColBlock{Kind: rdd.ColNone, Pairs: mo.out.Boxed[r]}
}

// appendNonEmpty appends the ids of the reduce buckets holding at least
// one pair to dst, ascending.
func (mo *mapOutput) appendNonEmpty(dst []int32) []int32 {
	if mo.out.Cols != nil {
		return mo.out.Cols.AppendNonEmpty(dst)
	}
	for r, b := range mo.out.Boxed {
		if len(b) > 0 {
			dst = append(dst, int32(r))
		}
	}
	return dst
}

type state struct {
	mu        sync.Mutex
	numMaps   int
	numReduce int
	outputs   []*mapOutput
	// idx is the reduce-major index over outputs; nil until the first
	// read after the last write builds it.
	idx *reduceIndex
	// retired marks a generation whose arenas have been released; any
	// read of its outputs is a lifecycle bug and panics loudly.
	retired bool
}

// Manager tracks all shuffles of a run.
type Manager struct {
	mu            sync.RWMutex
	overheadBytes int64
	emptyBytes    int64
	shuffles      map[int]*state
}

// NewManager creates a manager with the given per-block overheads in bytes:
// non-empty blocks carry headers and framing (overheadBytes); empty blocks
// only cost an index entry (emptyBytes). With K distinct keys, a shuffle
// over R >> K partitions has mostly empty blocks, so total volume grows
// roughly linearly (not quadratically) with R — matching the paper's Fig. 4.
func NewManager(overheadBytes, emptyBytes int64) *Manager {
	return &Manager{overheadBytes: overheadBytes, emptyBytes: emptyBytes, shuffles: map[int]*state{}}
}

// BlockOverhead reports the overhead charged for a block of the given
// payload size.
func (m *Manager) BlockOverhead(payloadBytes int64) int64 {
	if payloadBytes == 0 {
		return m.emptyBytes
	}
	return m.overheadBytes
}

// blockBytes is payload plus overhead for one block.
func (m *Manager) blockBytes(payload int64) int64 {
	return payload + m.BlockOverhead(payload)
}

// Register announces a shuffle before its map stage runs. Re-registering an
// id resets it (a stage retune re-runs the map side).
func (m *Manager) Register(shuffleID, numMaps, numReduce int) {
	if numMaps <= 0 || numReduce <= 0 {
		panic(fmt.Sprintf("shuffle: register %d with maps=%d reduce=%d", shuffleID, numMaps, numReduce))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shuffles[shuffleID] = &state{
		numMaps:   numMaps,
		numReduce: numReduce,
		outputs:   make([]*mapOutput, numMaps),
	}
}

// PutMapOutput records the output map task mapTask wrote on node. It returns
// the total bytes written (payload plus per-block overhead), the quantity
// the metrics layer reports as shuffle write.
func (m *Manager) PutMapOutput(shuffleID, mapTask int, node string, out MapOutput) int64 {
	st := m.mustGet(shuffleID)
	var bytes int64
	for _, p := range out.Payloads {
		bytes += m.blockBytes(p)
	}
	if out.Payloads == nil {
		bytes = int64(st.numReduce) * m.emptyBytes
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.retired {
		panic(fmt.Sprintf("shuffle %d: write after retirement", shuffleID))
	}
	if mapTask < 0 || mapTask >= st.numMaps {
		panic(fmt.Sprintf("shuffle %d: map task %d out of range [0,%d)", shuffleID, mapTask, st.numMaps))
	}
	if out.Payloads != nil && len(out.Payloads) != st.numReduce {
		panic(fmt.Sprintf("shuffle %d: got %d payloads, want %d", shuffleID, len(out.Payloads), st.numReduce))
	}
	if out.Cols != nil {
		if out.Cols.NumBuckets() != st.numReduce {
			panic(fmt.Sprintf("shuffle %d: arena has %d buckets, want %d", shuffleID, out.Cols.NumBuckets(), st.numReduce))
		}
	} else if len(out.Boxed) != st.numReduce {
		panic(fmt.Sprintf("shuffle %d: got %d boxed buckets, want %d", shuffleID, len(out.Boxed), st.numReduce))
	}
	st.outputs[mapTask] = &mapOutput{node: node, out: out}
	st.idx = nil
	return bytes
}

// reduceIndex is one shuffle's stored map outputs transposed for the
// reduce side; immutable once built.
type reduceIndex struct {
	// missing is the lowest map task without output, -1 when complete.
	missing int
	// nodes are the map nodes holding output, sorted by name; bytes is
	// the node-major matrix of input bytes (payload + per-block overhead):
	// bytes[n*numReduce+r] is what reduce r reads from nodes[n].
	nodes     []string
	bytes     []int64
	numReduce int
	// blocks[starts[r]:starts[r+1]] are the map outputs whose bucket r
	// holds at least one pair, in map-task order.
	starts []int32
	blocks []*mapOutput
}

// buildIndex transposes the outputs stored so far: per map output one scan
// of its payload sizes (integer sums, so the totals do not depend on put
// order) and one of its bucket boundaries; everything after that touches
// non-empty blocks only. Callers hold st.mu.
func (m *Manager) buildIndex(st *state) *reduceIndex {
	nr := st.numReduce
	ix := &reduceIndex{missing: -1, numReduce: nr, starts: make([]int32, nr+1)}
	row := map[string]int{} // node -> matrix row
	for i, mo := range st.outputs {
		if mo == nil {
			if ix.missing < 0 {
				ix.missing = i
			}
		} else if _, ok := row[mo.node]; !ok {
			row[mo.node] = 0
			ix.nodes = append(ix.nodes, mo.node)
		}
	}
	slices.Sort(ix.nodes)
	for n, node := range ix.nodes {
		row[node] = n
	}
	ix.bytes = make([]int64, len(ix.nodes)*nr)
	allEmpty := make([]int64, len(ix.nodes)) // per node: bytes of outputs with nil Payloads, per reduce
	// ids lists every output's non-empty buckets back to back; ends[i]
	// closes map task i's run.
	var ids []int32
	ends := make([]int, len(st.outputs))
	for i, mo := range st.outputs {
		if mo != nil {
			n := row[mo.node]
			if mo.out.Payloads == nil {
				allEmpty[n] += m.emptyBytes
			}
			sums := ix.bytes[n*nr:][:nr]
			for r, p := range mo.out.Payloads {
				sums[r] += m.blockBytes(p)
			}
			ids = mo.appendNonEmpty(ids)
		}
		ends[i] = len(ids)
	}
	for n, b := range allEmpty {
		for r := n * nr; r < (n+1)*nr; r++ {
			ix.bytes[r] += b
		}
	}
	for _, r := range ids {
		ix.starts[r+1]++
	}
	for r := 0; r < nr; r++ {
		ix.starts[r+1] += ix.starts[r]
	}
	ix.blocks = make([]*mapOutput, len(ids))
	next := slices.Clone(ix.starts[:nr])
	lo := 0
	for i, mo := range st.outputs {
		for _, r := range ids[lo:ends[i]] {
			ix.blocks[next[r]] = mo
			next[r]++
		}
		lo = ends[i]
	}
	return ix
}

// index returns the shuffle's reduce-major index, building it if a write
// dropped the last one. Reading a retired generation panics: its arenas
// are released, so a view would break the zero-copy contract.
func (m *Manager) index(shuffleID, reduce int) *reduceIndex {
	st := m.mustGet(shuffleID)
	if reduce < 0 || reduce >= st.numReduce {
		panic(fmt.Sprintf("shuffle %d: reduce %d out of range [0,%d)", shuffleID, reduce, st.numReduce))
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.retired {
		panic(fmt.Sprintf("shuffle %d: read after retirement", shuffleID))
	}
	if st.idx == nil {
		st.idx = m.buildIndex(st)
	}
	return st.idx
}

// nodeBytes reads reduce partition r's column of the byte matrix into a
// fresh slice, sorted by node name.
func (ix *reduceIndex) nodeBytes(r int) []NodeBytes {
	out := make([]NodeBytes, len(ix.nodes))
	for n, node := range ix.nodes {
		out[n] = NodeBytes{Node: node, Bytes: ix.bytes[n*ix.numReduce+r]}
	}
	return out
}

// ReduceView is one reduce partition's input: the stored outputs of the
// map tasks that wrote at least one pair for it, in map-task order
// (deterministic merge order downstream), plus its locality profile.
// Empty blocks are charged in NodeBytes but never visited. BlockInto
// streams zero-copy views that alias the map tasks' arenas: they are valid
// until the shuffle generation retires and must be deep-copied before
// being retained anywhere heap-lived (the genlife rule enforces this
// contract statically).
type ReduceView struct {
	idx    *reduceIndex
	outs   []*mapOutput
	reduce int
}

// Len reports the number of non-empty input blocks.
func (v ReduceView) Len() int { return len(v.outs) }

// BlockInto writes non-empty block i's zero-copy view into dst, fully
// overwriting it — the exact get-callback shape rdd.MergeReduceColN
// consumes, so a reduce merge reuses one stack scratch block across the
// whole input.
func (v ReduceView) BlockInto(i int, dst *rdd.ColBlock) {
	v.outs[i].blockInto(v.reduce, dst)
}

// NodeBytes reports how many of the partition's input bytes (payload plus
// per-block overhead, empty blocks included) live on each map node,
// sorted by node name. The slice is the caller's own.
func (v ReduceView) NodeBytes() []NodeBytes { return v.idx.nodeBytes(v.reduce) }

// ReduceInput returns the reduce partition's input view. Reading before
// every map task finished, or after the generation retired, panics.
func (m *Manager) ReduceInput(shuffleID, reduce int) ReduceView {
	ix := m.index(shuffleID, reduce)
	if ix.missing >= 0 {
		panic(fmt.Sprintf("shuffle %d: reduce read before map %d finished", shuffleID, ix.missing))
	}
	return ReduceView{idx: ix, outs: ix.blocks[ix.starts[reduce]:ix.starts[reduce+1]], reduce: reduce}
}

// ReduceNodeBytes reports, for one reduce partition, how many input bytes
// live on each map node — the locality signal for reduce placement —
// sorted by node name, over the map outputs stored so far. The returned
// slice is the caller's own.
func (m *Manager) ReduceNodeBytes(shuffleID, reduce int) []NodeBytes {
	return m.index(shuffleID, reduce).nodeBytes(reduce)
}

// BestReduceNode returns the node holding the most input for a reduce
// partition across the given shuffles (a join reads several); ties go to
// the lexicographically first node. ok is false when no output exists yet.
func (m *Manager) BestReduceNode(shuffleIDs []int, reduce int) (best string, ok bool) {
	totals := map[string]int64{}
	for _, id := range shuffleIDs {
		ix := m.index(id, reduce)
		for n, node := range ix.nodes {
			totals[node] += ix.bytes[n*ix.numReduce+reduce]
		}
	}
	for node, b := range totals {
		if !ok || b > totals[best] || b == totals[best] && node < best {
			best, ok = node, true
		}
	}
	return best, ok
}

// RetireExcept releases every tracked shuffle whose id is not in live:
// output tables — and with them every map task's columnar arena — drop in
// one step, so a whole generation's shuffle memory frees at once instead of
// trickling through the GC pair by pair.
// Retired ids keep a stub state so a late read panics with a clear
// lifecycle message instead of corrupting silently; Register over a
// retired id resets it fresh (a retuned stage re-runs its map side).
//
// The scheduler calls this at job submission with every shuffle id still
// reachable from the job's lineage — including pre-cache-frontier ids a
// mid-job cache loss may need to re-read — so fault recovery never meets
// a retired shuffle. Returns the number of shuffles retired.
func (m *Manager) RetireExcept(live []int) int {
	keep := make(map[int]bool, len(live))
	for _, id := range live {
		keep[id] = true
	}
	m.mu.RLock()
	ids := make([]int, 0, len(m.shuffles))
	for id := range m.shuffles {
		if !keep[id] {
			ids = append(ids, id)
		}
	}
	m.mu.RUnlock()
	slices.Sort(ids)
	retired := 0
	for _, id := range ids {
		st := m.mustGet(id)
		st.mu.Lock()
		if !st.retired {
			st.outputs = nil
			st.idx = nil
			st.retired = true
			retired++
		}
		st.mu.Unlock()
	}
	return retired
}

// NumReduce reports the reduce-side partition count of a shuffle.
func (m *Manager) NumReduce(shuffleID int) int {
	// numReduce is immutable after Register; no state lock needed.
	return m.mustGet(shuffleID).numReduce
}

func (m *Manager) mustGet(id int) *state {
	m.mu.RLock()
	defer m.mu.RUnlock()
	st, ok := m.shuffles[id]
	if !ok {
		panic(fmt.Sprintf("shuffle: unknown shuffle id %d", id))
	}
	return st
}
