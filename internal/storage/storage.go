// Package storage provides the two storage layers the engine relies on:
//
//   - BlockStore: an HDFS-like distributed block layout. Input files are
//     carved into fixed-size blocks placed (with replication) across worker
//     nodes; the scheduler queries block locations to place input tasks
//     locally, exactly as Spark does against HDFS.
//   - MemStore: the block-manager memory store holding persisted (cached)
//     RDD partitions with per-node capacity; entries are evicted in Put
//     order (the engine reads through Peek, which leaves the order alone).
package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"chopper/internal/rdd"
)

// BlockInfo describes one block of a stored file.
type BlockInfo struct {
	Index int
	Bytes int64
	Nodes []string // replica locations
}

// BlockStore models HDFS block placement for logical input files.
type BlockStore struct {
	mu         sync.Mutex
	blockBytes int64
	replicas   int
	workers    []string
	files      map[string][]BlockInfo
	nextNode   int
	// locs interns the location lists Split builds for ranges spanning
	// blocks, keyed by the names each holds, length-prefixed: few orders
	// of a few nodes recur across every split of every file.
	locs map[string][]string
}

// NewBlockStore creates a store with the given block size and replica count
// over the named worker nodes. Replicas beyond the worker count are clamped.
func NewBlockStore(blockBytes int64, replicas int, workers []string) *BlockStore {
	if blockBytes <= 0 {
		panic("storage: block size must be positive")
	}
	if len(workers) == 0 {
		panic("storage: no worker nodes")
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(workers) {
		replicas = len(workers)
	}
	ws := make([]string, len(workers))
	copy(ws, workers)
	sort.Strings(ws)
	return &BlockStore{
		blockBytes: blockBytes,
		replicas:   replicas,
		workers:    ws,
		files:      map[string][]BlockInfo{},
		locs:       map[string][]string{},
	}
}

// AddFile registers a logical file of totalBytes, placing its blocks
// round-robin (with replication) across workers; each block's replica list
// is sorted by name. Re-adding a file replaces its layout deterministically.
func (s *BlockStore) AddFile(name string, totalBytes int64) []BlockInfo {
	if totalBytes < 0 {
		panic(fmt.Sprintf("storage: negative file size %d", totalBytes))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int((totalBytes + s.blockBytes - 1) / s.blockBytes)
	if n == 0 {
		n = 1
	}
	blocks := make([]BlockInfo, n)
	replicas := make([]string, n*s.replicas) // every block's list, one after another
	remaining := totalBytes
	for i := range blocks {
		sz := s.blockBytes
		if remaining < sz {
			sz = remaining
		}
		remaining -= sz
		nodes := replicas[i*s.replicas : (i+1)*s.replicas : (i+1)*s.replicas]
		for r := range nodes {
			nodes[r] = s.workers[(i+r)%len(s.workers)]
		}
		slices.Sort(nodes)
		blocks[i] = BlockInfo{Index: i, Bytes: sz, Nodes: nodes}
	}
	s.files[name] = blocks
	return blocks
}

// File returns the block layout of a file, or nil if unknown.
func (s *BlockStore) File(name string) []BlockInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.files[name]
}

// Split reports the logical bytes covered by split of numSplits over the
// file, and the nodes holding data of that byte range ordered by descending
// bytes held (ties broken by name) — the task's preferred locations.
// Splits are byte ranges (like FileInputFormat with a goal size), so they
// may cover partial blocks: a 7 GB file split 300 ways yields 300
// near-equal ~24 MB splits even though blocks are 128 MB. Only the blocks
// the range overlaps are visited: every block but the last is full, so
// block i starts at byte i x blockBytes.
//
// The returned locations are read-only. A range inside one block holds
// equal bytes on every replica, so its order is the block's name-sorted
// replica list, returned as is (capacity clamped) without allocating; any
// other order is the store's interned copy, allocated once.
func (s *BlockStore) Split(name string, split, numSplits int) (int64, []string) {
	blocks := s.File(name)
	if len(blocks) == 0 || numSplits <= 0 || split < 0 || split >= numSplits {
		return 0, nil
	}
	total := int64(len(blocks)-1)*s.blockBytes + blocks[len(blocks)-1].Bytes
	lo := int64(split) * total / int64(numSplits)
	hi := int64(split+1) * total / int64(numSplits)
	if hi > lo && lo/s.blockBytes == (hi-1)/s.blockBytes {
		nodes := blocks[lo/s.blockBytes].Nodes
		return hi - lo, nodes[:len(nodes):len(nodes)]
	}
	type nodeBytes struct {
		node  string
		bytes int64
	}
	var buf [8]nodeBytes
	held := buf[:0]
	for i := lo / s.blockBytes; i < int64(len(blocks)) && i*s.blockBytes < hi; i++ {
		blkLo := i * s.blockBytes
		overlap := min(hi, blkLo+blocks[i].Bytes) - max(lo, blkLo)
		if overlap <= 0 {
			continue
		}
		for _, n := range blocks[i].Nodes {
			if j := slices.IndexFunc(held, func(h nodeBytes) bool { return h.node == n }); j >= 0 {
				held[j].bytes += overlap
			} else {
				held = append(held, nodeBytes{n, overlap})
			}
		}
	}
	slices.SortFunc(held, func(x, y nodeBytes) int {
		if x.bytes != y.bytes {
			return cmp.Compare(y.bytes, x.bytes)
		}
		return strings.Compare(x.node, y.node)
	})
	var kb [64]byte
	key := kb[:0]
	for _, h := range held {
		key = append(binary.AppendUvarint(key, uint64(len(h.node))), h.node...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	locs, ok := s.locs[string(key)]
	if !ok {
		locs = make([]string, len(held))
		for i, h := range held {
			locs[i] = h.node
		}
		s.locs[string(key)] = locs
	}
	return hi - lo, locs
}

// CacheKey identifies a cached RDD partition. Of is the partition count the
// RDD had when cached: if a configurator later retunes the RDD's
// partitioning, the old entries stop matching instead of serving content
// computed under a different partitioner.
type CacheKey struct {
	RDD   int
	Split int
	Of    int
}

// CacheEntry is one persisted partition.
type CacheEntry struct {
	Key   CacheKey
	Node  string
	Bytes int64 // logical bytes
	Rows  []rdd.Row
	last  int64
}

// MemStore is the block-manager memory store: per-node capacity, entries
// evicted in Put order — recency moves on Put (and the tests' Get), never
// on the engine's reads through Peek. Evicted partitions are recomputed on
// next use (lineage), so eviction is lossy for time but not for
// correctness.
//
// Entries live in one dense table per (RDD, Of), indexed by split, the
// tables sorted by (RDD, Of): a lookup is a binary search over the cached
// RDDs plus an index, and each table counts its resident splits below Of,
// so Complete is one comparison. A table nothing is cached in any more is
// dropped when the next one is made.
type MemStore struct {
	mu     sync.Mutex
	cap    map[string]int64
	used   map[string]int64
	tables []cacheTable
	// tick orders recency: every Put takes the next one (and so does the
	// tests' Get), so no two entries share it.
	tick int64
	// evictions counts partitions dropped for capacity (read by tests).
	evictions int64
}

// cacheTable holds the cached splits of one RDD at one partition count.
type cacheTable struct {
	rdd, of  int
	held     int         // occupied slots
	resident int         // occupied slots below of
	slots    []cacheSlot // by split; at least of long
}

// cacheSlot is one split's entry; last is its recency tick, 0 when the slot
// is empty (ticks start at 1).
type cacheSlot struct {
	rows  []rdd.Row
	node  string
	bytes int64
	last  int64
}

// NewMemStore creates a store with the given per-node capacity in bytes.
func NewMemStore(capPerNode map[string]int64) *MemStore {
	capCopy := map[string]int64{}
	for k, v := range capPerNode {
		capCopy[k] = v
	}
	return &MemStore{cap: capCopy, used: map[string]int64{}}
}

// find returns the position of the (id, of) table, or where it would go.
func (m *MemStore) find(id, of int) (int, bool) {
	lo, hi := 0, len(m.tables)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if t := &m.tables[h]; t.rdd < id || (t.rdd == id && t.of < of) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(m.tables) && m.tables[lo].rdd == id && m.tables[lo].of == of
}

// lookup returns the table of key's RDD and Of, nil if there is none, and
// key's entry in it, nil when key is not cached.
func (m *MemStore) lookup(key CacheKey) (*cacheTable, *cacheSlot) {
	i, ok := m.find(key.RDD, key.Of)
	if !ok {
		return nil, nil
	}
	t := &m.tables[i]
	if key.Split < 0 || key.Split >= len(t.slots) || t.slots[key.Split].last == 0 {
		return t, nil
	}
	return t, &t.slots[key.Split]
}

// insert makes the table of key's RDD and Of, sized for its split, after
// dropping the tables nothing is cached in any more.
func (m *MemStore) insert(key CacheKey) *cacheTable {
	m.tables = slices.DeleteFunc(m.tables, func(t cacheTable) bool { return t.held == 0 })
	i, _ := m.find(key.RDD, key.Of)
	m.tables = slices.Insert(m.tables, i, cacheTable{rdd: key.RDD, of: key.Of, slots: make([]cacheSlot, max(key.Of, key.Split+1))})
	return &m.tables[i]
}

// fill occupies the empty slot of split.
func (t *cacheTable) fill(split int, s cacheSlot) {
	t.slots[split] = s
	t.held++
	if split < t.of {
		t.resident++
	}
}

// drop empties the slot of split.
func (t *cacheTable) drop(split int) {
	t.slots[split] = cacheSlot{}
	t.held--
	if split < t.of {
		t.resident--
	}
}

// Put caches a partition on node, evicting entries on that node in Put
// order, the earliest put first, to make room. Partitions larger than the node capacity are not
// cached (Spark drops them too). It returns the evicted entries (key and
// size) so callers can account released memory. A negative split panics.
func (m *MemStore) Put(key CacheKey, node string, bytes int64, rows []rdd.Row) []CacheEntry {
	if key.Split < 0 {
		panic(fmt.Sprintf("storage: caching negative split %d", key.Split))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	capacity, ok := m.cap[node]
	if !ok || bytes > capacity {
		return nil
	}
	t, old := m.lookup(key)
	if old != nil {
		m.used[old.node] -= old.bytes
		t.drop(key.Split)
	}
	// Evicting adds and removes no table, so t stays valid.
	var evicted []CacheEntry
	for m.used[node]+bytes > capacity {
		i, split, ok := m.lruOn(node)
		if !ok {
			break
		}
		vt := &m.tables[i]
		victim := vt.slots[split]
		m.used[node] -= victim.bytes
		vt.drop(split)
		evicted = append(evicted, CacheEntry{Key: CacheKey{RDD: vt.rdd, Split: split, Of: vt.of}, Node: victim.node, Bytes: victim.bytes})
		m.evictions++
	}
	if t == nil {
		t = m.insert(key)
	}
	if key.Split >= len(t.slots) {
		t.slots = append(t.slots, make([]cacheSlot, key.Split+1-len(t.slots))...)
	}
	m.tick++
	t.fill(key.Split, cacheSlot{rows: rows, node: node, bytes: bytes, last: m.tick})
	m.used[node] += bytes
	return evicted
}

// lruOn returns the table position and split of the least recently used
// entry on node (ticks are unique, so there is no tie to break), and
// whether the node caches any.
func (m *MemStore) lruOn(node string) (table, split int, ok bool) {
	var last int64
	for i := range m.tables {
		t := &m.tables[i]
		for sp := range t.slots {
			if s := &t.slots[sp]; s.last != 0 && s.node == node && (!ok || s.last < last) {
				table, split, last, ok = i, sp, s.last, true
			}
		}
	}
	return table, split, ok
}

// Peek returns the cached partition without touching recency. The
// engine reads the cache only through Peek, so cache access order cannot
// perturb eviction decisions: recency is the order of Put.
func (m *MemStore) Peek(key CacheKey) (CacheEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, s := m.lookup(key)
	if s == nil {
		return CacheEntry{}, false
	}
	return s.entry(key), true
}

// entry is the slot as key's CacheEntry.
func (s *cacheSlot) entry(key CacheKey) CacheEntry {
	return CacheEntry{Key: key, Node: s.node, Bytes: s.bytes, Rows: s.rows, last: s.last}
}

// Complete reports whether every split below of of the RDD id, cached at
// partition count of, is resident: true for no splits at all.
func (m *MemStore) Complete(id, of int) bool {
	if of <= 0 {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.find(id, of)
	return ok && m.tables[i].resident == of
}

// DropNode evicts every partition cached on the given node (node failure:
// the data is lost and must be recomputed from lineage). It returns the
// dropped entries, sorted by (RDD, Split, Of), so callers can account the
// released memory.
func (m *MemStore) DropNode(node string) []CacheEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	var dropped []CacheEntry
	for i := range m.tables {
		t := &m.tables[i]
		for split := range t.slots {
			if s := &t.slots[split]; s.last != 0 && s.node == node {
				dropped = append(dropped, CacheEntry{Key: CacheKey{RDD: t.rdd, Split: split, Of: t.of}, Node: node, Bytes: s.bytes})
				m.used[node] -= s.bytes
				t.drop(split)
			}
		}
	}
	delete(m.cap, node)
	// Collected by (RDD, Of, Split): the stable sort leaves one split's
	// entries under two partition counts in Of order.
	slices.SortStableFunc(dropped, func(a, b CacheEntry) int {
		return cmp.Or(cmp.Compare(a.Key.RDD, b.Key.RDD), cmp.Compare(a.Key.Split, b.Key.Split))
	})
	return dropped
}

// Clear drops all cached partitions and reports the bytes they held.
func (m *MemStore) Clear() (dropped int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range m.used {
		dropped += b
	}
	m.tables = nil
	m.used = map[string]int64{}
	return dropped
}
