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
// after the last write, into a reduce x node locality table and a
// reduce -> non-empty-blocks table: a reduce read is two sub-slices, the
// first its read-only locality profile. A map output is described by its
// non-empty buckets (MapOutput's sparse form): neither a write nor the
// transposition walks the blocks that hold nothing — they are charged from
// counts — so a P x P job pays host time for its rows, not for P² blocks.
// Each index entry is an rdd.BlockRef, the map task's arena and the
// block's position in it, resolved once per write, so a read does no
// search: the reduce kernels take a partition's refs (ReduceView.Refs) and
// slice each block's keys and values out of its arena in place, with no
// per-block header or callback. ReduceView.BlockInto, which writes one
// block's ColBlock view, stays for readers that want a view; the merge
// kernels do not call it. What still grows with the reduce count alone:
// the locality table of each index build. Map outputs are recorded in one
// slab per Register.
// One invalidation rule: any PutMapOutput, Register or RetireExcept on the
// shuffle drops its index. A built index is immutable and holds the arenas
// themselves, never a map output's record, so readers use it outside the
// lock and a re-put leaves a view taken before it reading the old arena.
// It is a layout, not a cache of answers: the engine asks each (shuffle,
// reduce) question once, so there is nothing to hit or evict.
package shuffle

import (
	"fmt"
	"slices"
	"sync"

	"chopper/internal/rdd"
)

// MapOutput is the complete shuffle write of one map task: the arena every
// reduce bucket slices out of (Cols; columnar, or the boxed tier's buckets
// in a ColNone arena), plus the logical payload sizes of its blocks.
// Storing the arena itself — not a materialized per-bucket block — keeps
// the manager at O(maps + non-empty blocks) per shuffle: with wide
// shuffles ~150-byte per-block views would dwarf the data they point at.
//
// The sizes come sparse (NonEmpty set; what the engine writes): Payloads[i]
// belongs to reduce bucket NonEmpty[i], and a bucket not listed holds no
// pair, is never read, and is charged as an empty block from the count.
// Or dense (NonEmpty nil): one Payloads entry per reduce bucket, converted
// on entry — the manager stores the sparse form only. Both nil: every
// block is empty (a map task without rows).
type MapOutput struct {
	// Cols is the map task's arena. Bucket r of the arena is reduce
	// partition r's input.
	Cols *rdd.ColBuckets
	// Payloads are logical serialized payload sizes, one per listed bucket
	// (sparse) or per reduce bucket (dense).
	Payloads []int64
	// NonEmpty lists the reduce buckets holding pairs, strictly ascending.
	// The engine hands over its arena's own list (Cols.NonEmpty()), which
	// the manager reads but never writes; it then addresses the arena by
	// position without a search.
	NonEmpty []int32
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
	// pos[i] is the arena position of listed bucket out.NonEmpty[i], -1
	// when the arena holds no pair for it; nil when the output lists
	// exactly the arena's buckets (position i is listed bucket i).
	pos []int32
}

// block reports where listed bucket i lives — its arena position — and
// whether it holds any pair.
func (mo *mapOutput) block(i int) (pos int32, ok bool) {
	if mo.pos == nil {
		return int32(i), true
	}
	return mo.pos[i], mo.pos[i] >= 0
}

// sparse converts a dense output to the stored form, listing every bucket
// that is charged a payload or holds rows, in fresh slices: the caller may
// put its dense output again.
func sparse(out MapOutput) MapOutput {
	hint := min(len(out.Payloads), out.Cols.Len()) // an arena has at most as many non-empty buckets as pairs
	ids, payloads := make([]int32, 0, hint), make([]int64, 0, hint)
	for r, p := range out.Payloads {
		if p != 0 || out.Cols.BucketLen(r) > 0 {
			ids = append(ids, int32(r))
			payloads = append(payloads, p)
		}
	}
	out.NonEmpty, out.Payloads = ids, payloads
	return out
}

type state struct {
	mu        sync.Mutex
	numMaps   int
	numReduce int
	// outputs[i] is &recs[i] once map task i has put its output, nil
	// before; the slab holds each task's latest put.
	outputs []*mapOutput
	recs    []mapOutput
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
		recs:      make([]mapOutput, numMaps),
	}
}

// PutMapOutput records the output map task mapTask wrote on node. It returns
// the total bytes written (payload plus per-block overhead), the quantity
// the metrics layer reports as shuffle write. A malformed output panics:
// no arena, wrong bucket count, a dense table of the wrong length, sparse
// ids not strictly ascending, out of range, or not as many as the
// payloads.
func (m *Manager) PutMapOutput(shuffleID, mapTask int, node string, out MapOutput) int64 {
	st := m.mustGet(shuffleID)
	nr := st.numReduce
	if out.Cols == nil {
		panic(fmt.Sprintf("shuffle %d: map output without an arena", shuffleID))
	}
	if out.Cols.NumBuckets() != nr {
		panic(fmt.Sprintf("shuffle %d: arena has %d buckets, want %d", shuffleID, out.Cols.NumBuckets(), nr))
	}
	if out.NonEmpty == nil && out.Payloads != nil {
		if len(out.Payloads) != nr {
			panic(fmt.Sprintf("shuffle %d: got %d payloads, want %d", shuffleID, len(out.Payloads), nr))
		}
		out = sparse(out)
	} else if len(out.NonEmpty) != len(out.Payloads) {
		panic(fmt.Sprintf("shuffle %d: got %d payloads for %d non-empty buckets", shuffleID, len(out.Payloads), len(out.NonEmpty)))
	}
	prev := int32(-1)
	for _, r := range out.NonEmpty {
		if r <= prev || int(r) >= nr {
			panic(fmt.Sprintf("shuffle %d: non-empty bucket ids %v not ascending in [0,%d)", shuffleID, out.NonEmpty, nr))
		}
		prev = r
	}
	bytes := int64(nr-len(out.NonEmpty)) * m.emptyBytes
	for _, p := range out.Payloads {
		bytes += m.blockBytes(p)
	}
	mo := mapOutput{node: node, out: out}
	// Resolve arena positions once, so reads need no search: the engine
	// lists exactly its arena's buckets; dense or hand-made outputs may
	// list others, or leave some out.
	if ids := out.Cols.NonEmpty(); !slices.Equal(out.NonEmpty, ids) {
		mo.pos = make([]int32, len(out.NonEmpty))
		for i, r := range out.NonEmpty {
			p, ok := slices.BinarySearch(ids, r)
			if !ok {
				p = -1
			}
			mo.pos[i] = int32(p)
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.retired {
		panic(fmt.Sprintf("shuffle %d: write after retirement", shuffleID))
	}
	if mapTask < 0 || mapTask >= st.numMaps {
		panic(fmt.Sprintf("shuffle %d: map task %d out of range [0,%d)", shuffleID, mapTask, st.numMaps))
	}
	st.recs[mapTask] = mo
	st.outputs[mapTask] = &st.recs[mapTask]
	st.idx = nil
	return bytes
}

// reduceIndex is one shuffle's stored map outputs transposed for the
// reduce side; immutable once built.
type reduceIndex struct {
	// missing is the lowest map task without output, -1 when complete.
	missing int
	// profiles holds a row per listed reduce partition after row 0, shared
	// by the unlisted ones (all blocks empty): rows[r] is reduce r's, width
	// entries of input bytes (payload + per-block overhead) by map node,
	// sorted by name; views hand rows out as is, so none is ever written.
	profiles []NodeBytes
	rows     []int32
	width    int
	// blocks[starts[r]:starts[r+1]] are the refs of reduce r's blocks that
	// hold at least one pair, in map-task order.
	starts []int32
	blocks []rdd.BlockRef
}

// buildIndex transposes the outputs stored so far, touching per map output
// its listed buckets only: every block is first charged as empty from the
// per-node output count, then each listed one is raised to its payload plus
// overhead (integer sums: the totals do not depend on put order). Callers
// hold st.mu.
func (m *Manager) buildIndex(st *state) *reduceIndex {
	nr := st.numReduce
	ix := &reduceIndex{missing: -1, rows: make([]int32, nr)}
	var nodes []string
	listed := int32(0)
	for i, mo := range st.outputs {
		if mo == nil {
			if ix.missing < 0 {
				ix.missing = i
			}
			continue
		}
		if !slices.Contains(nodes, mo.node) { // a handful of nodes
			nodes = append(nodes, mo.node)
		}
		for _, r := range mo.out.NonEmpty {
			if ix.rows[r] == 0 {
				listed++
				ix.rows[r] = listed
			}
		}
	}
	slices.Sort(nodes)
	w := len(nodes)
	ix.width = w
	ix.profiles = make([]NodeBytes, (int(listed)+1)*w)
	allEmpty := make([]int64, w) // per node: one empty block per output, per reduce
	// A shifted counting table: reduce r's block count at next[r+2] becomes
	// its first slot at next[r+1]; placing at next[r+1]++ leaves starts.
	next := make([]int32, nr+2)
	for _, mo := range st.outputs {
		if mo == nil {
			continue
		}
		n, _ := slices.BinarySearch(nodes, mo.node) // its column in every row
		allEmpty[n] += m.emptyBytes
		for i, r := range mo.out.NonEmpty {
			ix.profiles[int(ix.rows[r])*w+n].Bytes += m.blockBytes(mo.out.Payloads[i]) - m.emptyBytes
			if _, ok := mo.block(i); ok {
				next[r+2]++
			}
		}
	}
	for i := range ix.profiles {
		n := i % w
		ix.profiles[i] = NodeBytes{Node: nodes[n], Bytes: ix.profiles[i].Bytes + allEmpty[n]}
	}
	for r := 2; r < len(next); r++ {
		next[r] += next[r-1]
	}
	ix.blocks = make([]rdd.BlockRef, next[nr+1])
	for _, mo := range st.outputs {
		if mo == nil {
			continue
		}
		for i, r := range mo.out.NonEmpty {
			if pos, ok := mo.block(i); ok {
				ix.blocks[next[r+1]] = mo.out.Cols.Ref(int(pos))
				next[r+1]++
			}
		}
	}
	ix.starts = next[:nr+1]
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

// profile returns reduce partition r's row of the locality table, sorted by
// node name, capacity clamped; callers must not write it.
func (ix *reduceIndex) profile(r int) []NodeBytes {
	lo := int(ix.rows[r]) * ix.width
	return ix.profiles[lo : lo+ix.width : lo+ix.width]
}

// ReduceView is one reduce partition's input: the stored outputs of the
// map tasks that wrote at least one pair for it, in map-task order
// (deterministic merge order downstream), plus its locality profile.
// Empty blocks are charged in NodeBytes but never visited. Refs hands the
// blocks out by reference, the form the reduce kernels read in place
// (rdd.Scratch.MergeReduceRefs, MergeTypedRefs); BlockInto writes one
// block's view instead. Both alias the map tasks' arenas: they are valid
// until the shuffle generation retires and must be deep-copied before
// being retained anywhere heap-lived (the genlife rule enforces this
// contract statically).
type ReduceView struct {
	idx    *reduceIndex
	blocks []rdd.BlockRef
	reduce int
}

// Len reports the number of non-empty input blocks.
func (v ReduceView) Len() int { return len(v.blocks) }

// Refs returns the partition's non-empty blocks by reference, in map-task
// order: the index's own entries (capacity clamped), shared by every
// reader of the partition and never to be written.
func (v ReduceView) Refs() []rdd.BlockRef { return v.blocks }

// BlockInto writes non-empty block i's zero-copy view into dst, fully
// overwriting it: Refs()[i].Into(dst). The merge kernels read Refs
// instead; BlockInto serves a reader that wants a ColBlock, and is the
// get-callback shape the package-level adapter rdd.MergeReduceColN takes.
func (v ReduceView) BlockInto(i int, dst *rdd.ColBlock) { v.blocks[i].Into(dst) }

// NodeBytes reports how many of the partition's input bytes (payload plus
// per-block overhead, empty blocks included) live on each map node,
// sorted by node name. The slice is the index's own row, shared by every
// reader of the partition and read-only: copy it before changing it.
func (v ReduceView) NodeBytes() []NodeBytes { return v.idx.profile(v.reduce) }

// ReduceInput returns the reduce partition's input view. Reading before
// every map task finished, or after the generation retired, panics.
func (m *Manager) ReduceInput(shuffleID, reduce int) ReduceView {
	ix := m.index(shuffleID, reduce)
	if ix.missing >= 0 {
		panic(fmt.Sprintf("shuffle %d: reduce read before map %d finished", shuffleID, ix.missing))
	}
	lo, hi := ix.starts[reduce], ix.starts[reduce+1]
	return ReduceView{idx: ix, blocks: ix.blocks[lo:hi:hi], reduce: reduce}
}

// ReduceNodeBytes reports, for one reduce partition, how many input bytes
// live on each map node — the locality signal for reduce placement —
// sorted by node name, over the map outputs stored so far. The returned
// slice is the caller's own.
func (m *Manager) ReduceNodeBytes(shuffleID, reduce int) []NodeBytes {
	return slices.Clone(m.index(shuffleID, reduce).profile(reduce))
}

// BestReduceNode returns the node holding the most input for a reduce
// partition across the given shuffles (a join reads several); ties go to
// the lexicographically first node. ok is false when no output exists yet.
func (m *Manager) BestReduceNode(shuffleIDs []int, reduce int) (best string, ok bool) {
	totals := map[string]int64{}
	for _, id := range shuffleIDs {
		for _, nb := range m.index(id, reduce).profile(reduce) {
			totals[nb.Node] += nb.Bytes
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
			st.outputs, st.recs = nil, nil
			st.idx = nil
			st.retired = true
			retired++
		}
		st.mu.Unlock()
	}
	return retired
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
