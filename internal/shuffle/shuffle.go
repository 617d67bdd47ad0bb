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
// contend. Readers (ReduceInput, ReduceNodeBytes) snapshot the output table
// under the shuffle's lock and work outside it — map outputs are immutable
// once stored, so the snapshot stays valid. Nothing derived is cached: the
// engine asks each (shuffle, reduce) question once.
package shuffle

import (
	"fmt"
	"sort"
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
	// Payloads is the logical serialized payload size per reduce bucket.
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

type state struct {
	mu        sync.Mutex
	numMaps   int
	numReduce int
	outputs   []*mapOutput
	completed int
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
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.retired {
		panic(fmt.Sprintf("shuffle %d: write after retirement", shuffleID))
	}
	if mapTask < 0 || mapTask >= st.numMaps {
		panic(fmt.Sprintf("shuffle %d: map task %d out of range [0,%d)", shuffleID, mapTask, st.numMaps))
	}
	if len(out.Payloads) != st.numReduce {
		panic(fmt.Sprintf("shuffle %d: got %d payloads, want %d", shuffleID, len(out.Payloads), st.numReduce))
	}
	if out.Cols != nil {
		if out.Cols.NumBuckets() != st.numReduce {
			panic(fmt.Sprintf("shuffle %d: arena has %d buckets, want %d", shuffleID, out.Cols.NumBuckets(), st.numReduce))
		}
	} else if len(out.Boxed) != st.numReduce {
		panic(fmt.Sprintf("shuffle %d: got %d boxed buckets, want %d", shuffleID, len(out.Boxed), st.numReduce))
	}
	if st.outputs[mapTask] == nil {
		st.completed++
	}
	st.outputs[mapTask] = &mapOutput{node: node, out: out}
	return bytes
}

// Complete reports whether every map task has registered output.
func (m *Manager) Complete(shuffleID int) bool {
	st := m.mustGet(shuffleID)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.completed == st.numMaps
}

// snapshotOutputs copies the output table header under the shuffle lock.
// The *mapOutput entries are immutable once stored, so callers may read
// them without the lock. Reading a retired generation panics: its arenas
// have been released and any view handed out would be a use-after-free of
// the zero-copy contract.
func (st *state) snapshotOutputs(shuffleID int) []*mapOutput {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.retired {
		panic(fmt.Sprintf("shuffle %d: read after retirement", shuffleID))
	}
	outs := make([]*mapOutput, len(st.outputs))
	copy(outs, st.outputs)
	return outs
}

// ReduceView is one reduce partition's input: a window over every map
// task's stored output, in map-task order (deterministic merge order
// downstream). BlockInto streams zero-copy views that alias the map
// tasks' arenas: they are valid until the shuffle generation retires and
// must be deep-copied before being retained anywhere heap-lived (the
// genlife rule enforces this contract statically).
type ReduceView struct {
	outs   []*mapOutput
	reduce int
}

// Len reports the number of input blocks (one per map task).
func (v ReduceView) Len() int { return len(v.outs) }

// BlockInto writes block i's zero-copy view into dst, fully overwriting
// it — the exact get-callback shape rdd.MergeReduceColN consumes, so a
// reduce merge reuses one stack scratch block across the whole input.
func (v ReduceView) BlockInto(i int, dst *rdd.ColBlock) {
	v.outs[i].blockInto(v.reduce, dst)
}

// Blocks materializes the view as a slice of per-map blocks. The merge
// path streams through BlockInto instead; this shape serves callers that
// need random access to materialized views (tests, mostly).
func (v ReduceView) Blocks() []*rdd.ColBlock {
	out := make([]*rdd.ColBlock, len(v.outs))
	for i := range out {
		out[i] = new(rdd.ColBlock)
		v.BlockInto(i, out[i])
	}
	return out
}

// ReduceInput returns the reduce partition's input view over all map
// outputs. Reading before every map task finished, or after the
// generation retired, panics.
func (m *Manager) ReduceInput(shuffleID, reduce int) ReduceView {
	st := m.mustGet(shuffleID)
	checkReduce(st, shuffleID, reduce)
	outs := st.snapshotOutputs(shuffleID)
	for i, mo := range outs {
		if mo == nil {
			panic(fmt.Sprintf("shuffle %d: reduce read before map %d finished", shuffleID, i))
		}
	}
	return ReduceView{outs: outs, reduce: reduce}
}

// ReduceNodeBytes reports, for one reduce partition, how many input bytes
// live on each map node — the locality signal for reduce placement —
// sorted by node name. The profile is computed from one snapshot of the
// output table; the returned slice is the caller's own.
func (m *Manager) ReduceNodeBytes(shuffleID, reduce int) []NodeBytes {
	st := m.mustGet(shuffleID)
	checkReduce(st, shuffleID, reduce)
	totals := map[string]int64{}
	for _, mo := range st.snapshotOutputs(shuffleID) {
		if mo == nil {
			continue
		}
		totals[mo.node] += m.blockBytes(mo.out.Payloads[reduce])
	}
	nodes := make([]NodeBytes, 0, len(totals))
	for n, b := range totals {
		nodes = append(nodes, NodeBytes{Node: n, Bytes: b})
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Node < nodes[j].Node })
	return nodes
}

// BestReduceNode returns the node holding the most input for a reduce
// partition across the given shuffles (a join reads several), with
// deterministic tie-breaking. ok is false when no output exists yet.
func (m *Manager) BestReduceNode(shuffleIDs []int, reduce int) (string, bool) {
	totals := map[string]int64{}
	for _, id := range shuffleIDs {
		for _, nb := range m.ReduceNodeBytes(id, reduce) {
			totals[nb.Node] += nb.Bytes
		}
	}
	if len(totals) == 0 {
		return "", false
	}
	nodes := make([]string, 0, len(totals))
	for n := range totals {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	best := nodes[0]
	for _, n := range nodes[1:] {
		if totals[n] > totals[best] {
			best = n
		}
	}
	return best, true
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
	sort.Ints(ids)
	retired := 0
	for _, id := range ids {
		st := m.mustGet(id)
		st.mu.Lock()
		if !st.retired {
			st.outputs = nil
			st.completed = 0
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

func checkReduce(st *state, id, reduce int) {
	if reduce < 0 || reduce >= st.numReduce {
		panic(fmt.Sprintf("shuffle %d: reduce %d out of range [0,%d)", id, reduce, st.numReduce))
	}
}
