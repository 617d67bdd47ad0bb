// Package storage provides the two storage layers the engine relies on:
//
//   - BlockStore: an HDFS-like distributed block layout. Input files are
//     carved into fixed-size blocks placed (with replication) across worker
//     nodes; the scheduler queries block locations to place input tasks
//     locally, exactly as Spark does against HDFS.
//   - MemStore: the block-manager memory store holding persisted (cached)
//     RDD partitions with per-node capacity and LRU eviction.
package storage

import (
	"cmp"
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
	}
}

// BlockBytes reports the configured block size.
func (s *BlockStore) BlockBytes() int64 { return s.blockBytes }

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
	remaining := totalBytes
	for i := range blocks {
		sz := s.blockBytes
		if remaining < sz {
			sz = remaining
		}
		remaining -= sz
		nodes := make([]string, 0, s.replicas)
		for r := 0; r < s.replicas; r++ {
			nodes = append(nodes, s.workers[(i+r)%len(s.workers)])
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
// replica list, returned as is (capacity clamped) without allocating.
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
	locs := make([]string, len(held))
	for i, h := range held {
		locs[i] = h.node
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

// MemStore is the block-manager memory store: per-node capacity, LRU
// eviction. Evicted partitions are recomputed on next use (lineage), so
// eviction is lossy for time but not for correctness.
type MemStore struct {
	mu      sync.Mutex
	cap     map[string]int64
	used    map[string]int64
	entries map[CacheKey]*CacheEntry
	tick    int64
	// Evictions counts partitions dropped for capacity; a cheap health metric.
	evictions int64
}

// NewMemStore creates a store with the given per-node capacity in bytes.
func NewMemStore(capPerNode map[string]int64) *MemStore {
	capCopy := map[string]int64{}
	for k, v := range capPerNode {
		capCopy[k] = v
	}
	return &MemStore{
		cap:     capCopy,
		used:    map[string]int64{},
		entries: map[CacheKey]*CacheEntry{},
	}
}

// Put caches a partition on node, evicting least-recently-used entries on
// that node to make room. Partitions larger than the node capacity are not
// cached (Spark drops them too). It returns the evicted entries (key and
// size) so callers can account released memory.
func (m *MemStore) Put(key CacheKey, node string, bytes int64, rows []rdd.Row) []CacheEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	capacity, ok := m.cap[node]
	if !ok || bytes > capacity {
		return nil
	}
	if old, ok := m.entries[key]; ok {
		m.used[old.Node] -= old.Bytes
		delete(m.entries, key)
	}
	var evicted []CacheEntry
	for m.used[node]+bytes > capacity {
		victim := m.lruOn(node)
		if victim == nil {
			break
		}
		m.used[node] -= victim.Bytes
		delete(m.entries, victim.Key)
		evicted = append(evicted, CacheEntry{Key: victim.Key, Node: victim.Node, Bytes: victim.Bytes})
		m.evictions++
	}
	m.tick++
	m.entries[key] = &CacheEntry{Key: key, Node: node, Bytes: bytes, Rows: rows, last: m.tick}
	m.used[node] += bytes
	return evicted
}

func (m *MemStore) lruOn(node string) *CacheEntry {
	var victim *CacheEntry
	for _, e := range m.entries {
		if e.Node != node {
			continue
		}
		if victim == nil || e.last < victim.last ||
			(e.last == victim.last && lessKey(e.Key, victim.Key)) {
			victim = e
		}
	}
	return victim
}

func lessKey(a, b CacheKey) bool {
	if a.RDD != b.RDD {
		return a.RDD < b.RDD
	}
	return a.Split < b.Split
}

// Peek returns the cached partition without touching LRU recency. The
// engine's parallel compute pass uses Peek so cache access order cannot
// perturb eviction decisions; the sequential accounting pass uses Get.
func (m *MemStore) Peek(key CacheKey) (*CacheEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	return e, ok
}

// Get returns the cached partition and marks it recently used.
func (m *MemStore) Get(key CacheKey) (*CacheEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		return nil, false
	}
	m.tick++
	e.last = m.tick
	return e, true
}

// Location reports the node caching key, if any.
func (m *MemStore) Location(key CacheKey) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok {
		return "", false
	}
	return e.Node, true
}

// NodeUsed reports cached bytes on a node.
func (m *MemStore) NodeUsed(node string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used[node]
}

// Evictions reports the total evicted partition count.
func (m *MemStore) Evictions() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictions
}

// DropNode evicts every partition cached on the given node (node failure:
// the data is lost and must be recomputed from lineage). It returns the
// dropped entries so callers can account the released memory.
func (m *MemStore) DropNode(node string) []CacheEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	var dropped []CacheEntry
	for k, e := range m.entries {
		if e.Node != node {
			continue
		}
		dropped = append(dropped, CacheEntry{Key: e.Key, Node: e.Node, Bytes: e.Bytes})
		m.used[node] -= e.Bytes
		delete(m.entries, k)
	}
	delete(m.cap, node)
	sort.Slice(dropped, func(i, j int) bool { return lessKey(dropped[i].Key, dropped[j].Key) })
	return dropped
}

// Clear drops all cached partitions (between experiment runs).
func (m *MemStore) Clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = map[CacheKey]*CacheEntry{}
	m.used = map[string]int64{}
}
