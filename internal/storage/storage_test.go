package storage

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"chopper/internal/rdd"
)

var workers = []string{"A", "B", "C", "D", "E"}

func TestBlockStorePlacement(t *testing.T) {
	s := NewBlockStore(128, 2, workers)
	blocks := s.AddFile("f", 1000)
	if len(blocks) != 8 { // ceil(1000/128)
		t.Fatalf("block count = %d, want 8", len(blocks))
	}
	var total int64
	for i, b := range blocks {
		total += b.Bytes
		if len(b.Nodes) != 2 {
			t.Fatalf("block %d has %d replicas", i, len(b.Nodes))
		}
		if b.Nodes[0] == b.Nodes[1] {
			t.Fatalf("replicas on same node")
		}
	}
	if total != 1000 {
		t.Fatalf("block bytes sum to %d, want 1000", total)
	}
	if blocks[7].Bytes != 1000-7*128 {
		t.Fatalf("last block should be the remainder: %d", blocks[7].Bytes)
	}
}

func TestBlockStoreEmptyAndTinyFiles(t *testing.T) {
	s := NewBlockStore(128, 1, workers)
	b0 := s.AddFile("empty", 0)
	if len(b0) != 1 || b0[0].Bytes != 0 {
		t.Fatalf("empty file should have one zero block: %+v", b0)
	}
	b1 := s.AddFile("tiny", 5)
	if len(b1) != 1 || b1[0].Bytes != 5 {
		t.Fatalf("tiny file layout wrong: %+v", b1)
	}
	if s.File("missing") != nil {
		t.Fatalf("unknown file should be nil")
	}
}

func TestBlockStoreReplicaClamp(t *testing.T) {
	s := NewBlockStore(10, 99, []string{"x", "y"})
	b := s.AddFile("f", 10)
	if len(b[0].Nodes) != 2 {
		t.Fatalf("replicas should clamp to worker count: %v", b[0].Nodes)
	}
}

func TestSplitBytesCoverFile(t *testing.T) {
	s := NewBlockStore(100, 1, workers)
	s.AddFile("f", 1050)
	var sum int64
	for i := 0; i < 4; i++ {
		b, _ := s.Split("f", i, 4)
		sum += b
	}
	if sum != 1050 {
		t.Fatalf("splits must cover the file exactly: %d", sum)
	}
	for _, split := range []int{9, -1} {
		if b, locs := s.Split("f", split, 4); b != 0 || len(locs) != 0 {
			t.Fatalf("out-of-range split %d should be empty: %d bytes on %v", split, b, locs)
		}
	}
}

func TestSplitLocationsOrderedByBytes(t *testing.T) {
	s := NewBlockStore(100, 1, workers)
	s.AddFile("f", 1100) // 11 blocks round-robin over 5 workers
	_, locs := s.Split("f", 0, 1)
	if len(locs) != 5 {
		t.Fatalf("expected all workers to hold data: %v", locs)
	}
	// Worker A holds blocks 0,5,10 = 300 bytes; most-loaded first.
	if locs[0] != "A" {
		t.Fatalf("A should lead: %v", locs)
	}
}

func TestMemStorePutGet(t *testing.T) {
	m := NewMemStore(map[string]int64{"A": 1000})
	k := CacheKey{RDD: 1, Split: 0, Of: 4}
	m.Put(k, "A", 100, []rdd.Row{1, 2, 3})
	e, ok := m.Get(k)
	if !ok || e.Bytes != 100 || len(e.Rows) != 3 || e.Node != "A" {
		t.Fatalf("get failed: %+v %v", e, ok)
	}
	if node, ok := m.Location(k); !ok || node != "A" {
		t.Fatalf("location wrong")
	}
	if _, ok := m.Get(CacheKey{RDD: 9, Split: 9, Of: 4}); ok {
		t.Fatalf("missing key should not be found")
	}
	if m.NodeUsed("A") != 100 {
		t.Fatalf("usage accounting wrong: %d", m.NodeUsed("A"))
	}
}

func TestMemStoreLRUEviction(t *testing.T) {
	m := NewMemStore(map[string]int64{"A": 250})
	k1, k2, k3 := CacheKey{1, 0, 4}, CacheKey{1, 1, 4}, CacheKey{1, 2, 4}
	m.Put(k1, "A", 100, nil)
	m.Put(k2, "A", 100, nil)
	m.Get(k1) // k1 now more recent than k2
	evicted := m.Put(k3, "A", 100, nil)
	if len(evicted) != 1 || evicted[0].Key != k2 || evicted[0].Bytes != 100 {
		t.Fatalf("LRU should evict k2 with its size: %v", evicted)
	}
	if _, ok := m.Get(k2); ok {
		t.Fatalf("k2 should be gone")
	}
	if _, ok := m.Get(k1); !ok {
		t.Fatalf("k1 should survive")
	}
	if m.Evictions() != 1 {
		t.Fatalf("eviction counter = %d", m.Evictions())
	}
}

// TestPeekLeavesEvictionOrder: the engine reads the cache only through
// Peek, and a Peek does not refresh recency, so entries leave in Put order
// however often the earlier one is read.
func TestPeekLeavesEvictionOrder(t *testing.T) {
	m := NewMemStore(map[string]int64{"A": 250})
	k1, k2, k3 := CacheKey{1, 0, 4}, CacheKey{1, 1, 4}, CacheKey{1, 2, 4}
	m.Put(k1, "A", 100, nil)
	m.Put(k2, "A", 100, nil)
	for range 3 {
		if _, ok := m.Peek(k1); !ok {
			t.Fatalf("k1 should be cached")
		}
	}
	evicted := m.Put(k3, "A", 100, nil)
	if len(evicted) != 1 || evicted[0].Key != k1 {
		t.Fatalf("after Peeks of k1, a Put evicted %v; want k1, the first put", evicted)
	}
	if _, ok := m.Peek(k2); !ok {
		t.Fatalf("k2 should survive")
	}
}

func TestMemStoreOversizedAndUnknownNode(t *testing.T) {
	m := NewMemStore(map[string]int64{"A": 100})
	m.Put(CacheKey{1, 0, 4}, "A", 500, nil) // larger than capacity: not cached
	if _, ok := m.Get(CacheKey{1, 0, 4}); ok {
		t.Fatalf("oversized partition should not cache")
	}
	m.Put(CacheKey{1, 1, 4}, "Z", 10, nil) // unknown node
	if _, ok := m.Get(CacheKey{1, 1, 4}); ok {
		t.Fatalf("unknown node should not cache")
	}
}

func TestMemStoreReplaceSameKey(t *testing.T) {
	m := NewMemStore(map[string]int64{"A": 100})
	k := CacheKey{1, 0, 4}
	m.Put(k, "A", 60, nil)
	m.Put(k, "A", 80, nil) // replace must free the old 60 first
	if m.NodeUsed("A") != 80 {
		t.Fatalf("replace accounting wrong: %d", m.NodeUsed("A"))
	}
}

func TestMemStoreClear(t *testing.T) {
	m := NewMemStore(map[string]int64{"A": 100})
	m.Put(CacheKey{1, 0, 4}, "A", 50, nil)
	if got := m.Clear(); got != 50 {
		t.Fatalf("clear reported %d bytes dropped, want 50", got)
	}
	if m.NodeUsed("A") != 0 {
		t.Fatalf("clear should reset usage")
	}
	if _, ok := m.Get(CacheKey{1, 0, 4}); ok {
		t.Fatalf("clear should drop entries")
	}
}

// TestMemStoreDropsEmptyTables: caching one RDD after another on a node
// with room for one partition evicts each in turn; the store keeps the
// table of the one cached and at most one emptied since, not one per RDD.
func TestMemStoreDropsEmptyTables(t *testing.T) {
	m := NewMemStore(map[string]int64{"A": 100})
	for id := 1; id <= 1000; id++ {
		m.Put(CacheKey{RDD: id, Split: 0, Of: 300}, "A", 100, nil)
		if len(m.tables) > 2 {
			t.Fatalf("after caching RDD %d the store holds %d tables", id, len(m.tables))
		}
	}
	if _, ok := m.Peek(CacheKey{RDD: 1000, Split: 0, Of: 300}); !ok || m.Evictions() != 999 {
		t.Fatalf("the last RDD is not cached, or %d evictions, want 999", m.Evictions())
	}
}

// Property: used bytes on a node never exceed its capacity.
func TestQuickMemStoreCapacityInvariant(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := NewMemStore(map[string]int64{"A": 1000})
		for i, sz := range sizes {
			m.Put(CacheKey{RDD: 1, Split: i}, "A", int64(sz), nil)
			if m.NodeUsed("A") > 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// modelStore is the map-backed memory store the table-per-RDD MemStore
// replaced, kept as its reference: one map entry per cached key, LRU by a
// scan of every entry.
type modelStore struct {
	cap       map[string]int64
	used      map[string]int64
	entries   map[CacheKey]CacheEntry
	tick      int64
	evictions int64
}

func newModelStore(capPerNode map[string]int64) *modelStore {
	capCopy := map[string]int64{}
	for k, v := range capPerNode {
		capCopy[k] = v
	}
	return &modelStore{cap: capCopy, used: map[string]int64{}, entries: map[CacheKey]CacheEntry{}}
}

func (m *modelStore) Put(key CacheKey, node string, bytes int64, rows []rdd.Row) []CacheEntry {
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
		victim, ok := m.lruOn(node)
		if !ok {
			break
		}
		m.used[node] -= victim.Bytes
		delete(m.entries, victim.Key)
		evicted = append(evicted, CacheEntry{Key: victim.Key, Node: victim.Node, Bytes: victim.Bytes})
		m.evictions++
	}
	m.tick++
	m.entries[key] = CacheEntry{Key: key, Node: node, Bytes: bytes, Rows: rows, last: m.tick}
	m.used[node] += bytes
	return evicted
}

func (m *modelStore) lruOn(node string) (victim CacheEntry, ok bool) {
	for _, e := range m.entries {
		if e.Node != node {
			continue
		}
		if !ok || e.last < victim.last ||
			(e.last == victim.last && lessKey(e.Key, victim.Key)) {
			victim, ok = e, true
		}
	}
	return victim, ok
}

func lessKey(a, b CacheKey) bool {
	if a.RDD != b.RDD {
		return a.RDD < b.RDD
	}
	return a.Split < b.Split
}

func (m *modelStore) Peek(key CacheKey) (CacheEntry, bool) {
	e, ok := m.entries[key]
	return e, ok
}

func (m *modelStore) Get(key CacheKey) (CacheEntry, bool) {
	e, ok := m.entries[key]
	if !ok {
		return CacheEntry{}, false
	}
	m.tick++
	e.last = m.tick
	m.entries[key] = e
	return e, true
}

func (m *modelStore) Location(key CacheKey) (string, bool) {
	e, ok := m.entries[key]
	return e.Node, ok
}

// Complete is the engine's old per-split probe loop.
func (m *modelStore) Complete(id, of int) bool {
	for s := 0; s < of; s++ {
		if _, ok := m.entries[CacheKey{RDD: id, Split: s, Of: of}]; !ok {
			return false
		}
	}
	return true
}

func (m *modelStore) DropNode(node string) []CacheEntry {
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

func (m *modelStore) Clear() {
	m.entries = map[CacheKey]CacheEntry{}
	m.used = map[string]int64{}
}

// FuzzMemStoreMatchesModel drives random call sequences through the store
// and the model and compares every result after every step — evicted and
// dropped entries in order, entries with their recency ticks, locations,
// completeness — and every node's used bytes and the eviction count. Three
// RDDs are cached at two partition counts each (a retuned Of), so one
// split recurs under two keys that tie on (RDD, Split) wherever they are
// ordered; capacities of a few dozen entries keep evictions frequent and
// let tables fill; a node kill removes a node for good, and once every
// node is dead both stores start over; a Clear empties both; one key in
// six lies at or past its Of. Recency ticks are unique, so no eviction
// ever ties. The model orders DropNode's (RDD, Split) ties by map
// iteration; the store orders them by Of, which is what the model's result
// is re-sorted to. ci.sh runs it for 5 s.
func FuzzMemStoreMatchesModel(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, uint16(400))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint16) {
		rng := rand.New(rand.NewSource(seed))
		caps := map[string]int64{"A": 300, "B": 500, "C": 120}
		got, want := NewMemStore(caps), newModelStore(caps)
		nodes := []string{"A", "B", "C", "Z"}
		key := func() CacheKey {
			k := CacheKey{RDD: 1 + rng.Intn(3), Of: 2 + 2*rng.Intn(2)}
			k.Split = rng.Intn(k.Of)
			if rng.Intn(6) == 0 {
				k.Split = k.Of + rng.Intn(3)
			}
			return k
		}
		check := func(step int, op string, g, w any) {
			t.Helper()
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("step %d %s: store %+v, model %+v", step, op, g, w)
			}
		}
		for step := 0; step < int(steps%1024); step++ {
			switch r := rng.Intn(100); {
			case r < 45:
				k, node, bytes := key(), nodes[rng.Intn(len(nodes))], int64(rng.Intn(40))
				switch rng.Intn(20) {
				case 0:
					bytes = 600 // larger than every node
				case 1, 2, 3:
					bytes = int64(rng.Intn(160))
				}
				rows := []rdd.Row{step}
				check(step, "Put", got.Put(k, node, bytes, rows), want.Put(k, node, bytes, rows))
			case r < 60:
				k := key()
				ge, gok := got.Peek(k)
				we, wok := want.Peek(k)
				check(step, "Peek", []any{ge, gok}, []any{we, wok})
			case r < 75:
				k := key()
				ge, gok := got.Get(k)
				we, wok := want.Get(k)
				check(step, "Get", []any{ge, gok}, []any{we, wok})
			case r < 85:
				k := key()
				gn, gok := got.Location(k)
				wn, wok := want.Location(k)
				check(step, "Location", []any{gn, gok}, []any{wn, wok})
			case r < 98:
				k := key()
				check(step, "Complete", got.Complete(k.RDD, k.Of), want.Complete(k.RDD, k.Of))
			case r < 99:
				node := nodes[rng.Intn(len(nodes))]
				w := want.DropNode(node)
				slices.SortStableFunc(w, func(a, b CacheEntry) int {
					return cmp.Or(cmp.Compare(a.Key.RDD, b.Key.RDD), cmp.Compare(a.Key.Split, b.Key.Split), cmp.Compare(a.Key.Of, b.Key.Of))
				})
				check(step, "DropNode "+node, got.DropNode(node), w)
				if len(want.cap) == 0 { // every node killed: start over
					got, want = NewMemStore(caps), newModelStore(caps)
				}
			default:
				got.Clear()
				want.Clear()
			}
			for _, n := range nodes {
				check(step, "NodeUsed "+n, got.NodeUsed(n), want.used[n])
			}
			check(step, "Evictions", got.Evictions(), want.evictions)
		}
	})
}

// TestCachedCompleteAllocatesNothing: the scheduler asks whether a cached
// RDD is complete for every stage that reads it (Engine.CachedComplete is
// this call). On a fully cached 600-split RDD the answer is one table
// lookup and allocates nothing, and so does a Peek of one of its splits.
func TestCachedCompleteAllocatesNothing(t *testing.T) {
	const parts = 600
	m := NewMemStore(map[string]int64{"A": 1 << 40, "B": 1 << 40})
	for s := 0; s < parts; s++ {
		if m.Complete(7, parts) {
			t.Fatalf("complete with %d of %d splits cached", s, parts)
		}
		m.Put(CacheKey{RDD: 7, Split: s, Of: parts}, workers[s%2], 100, nil)
	}
	if !m.Complete(7, parts) || m.Complete(7, parts+1) || m.Complete(8, parts) {
		t.Fatalf("completeness wrong: %v at %d, %v at %d, %v for another RDD",
			m.Complete(7, parts), parts, m.Complete(7, parts+1), parts+1, m.Complete(8, parts))
	}
	if a := testing.AllocsPerRun(100, func() { m.Complete(7, parts) }); a != 0 {
		t.Fatalf("Complete allocated %v objects", a)
	}
	key := CacheKey{RDD: 7, Split: parts / 2, Of: parts}
	if a := testing.AllocsPerRun(100, func() { m.Peek(key) }); a != 0 {
		t.Fatalf("Peek allocated %v objects", a)
	}
}

// splitFullWalk is the reference for Split: every block of the file is
// visited, whether or not the split's byte range reaches it.
func splitFullWalk(s *BlockStore, name string, split, numSplits int) (int64, []string) {
	var total int64
	for _, b := range s.File(name) {
		total += b.Bytes
	}
	lo := int64(split) * total / int64(numSplits)
	hi := int64(split+1) * total / int64(numSplits)
	byNode := map[string]int64{}
	var off int64
	for _, blk := range s.File(name) {
		blkLo, blkHi := off, off+blk.Bytes
		off = blkHi
		if overlap := min(hi, blkHi) - max(lo, blkLo); overlap > 0 {
			for _, n := range blk.Nodes {
				byNode[n] += overlap
			}
		}
	}
	locs := []string{}
	for n := range byNode {
		locs = append(locs, n)
	}
	sort.Slice(locs, func(i, j int) bool {
		if byNode[locs[i]] != byNode[locs[j]] {
			return byNode[locs[i]] > byNode[locs[j]]
		}
		return locs[i] < locs[j]
	})
	return hi - lo, locs
}

// Property: visiting only the overlapping blocks answers exactly what the
// full walk answers — bytes and the (bytes desc, name asc) node order —
// for whole files, partial last blocks, empty files and splits finer than
// a byte.
func TestSplitMatchesFullWalk(t *testing.T) {
	f := func(fileBytes uint16, blockRaw, splitsRaw, replicasRaw uint8) bool {
		s := NewBlockStore(int64(blockRaw)+1, int(replicasRaw%3)+1, workers)
		s.AddFile("f", int64(fileBytes))
		splits := int(splitsRaw)%40 + 1
		for i := 0; i < splits; i++ {
			gotB, gotLocs := s.Split("f", i, splits)
			wantB, wantLocs := splitFullWalk(s, "f", i, splits)
			if gotB != wantB || !reflect.DeepEqual(gotLocs, wantLocs) {
				t.Logf("file %d B, block %d B, split %d/%d: got %d %v, want %d %v",
					fileBytes, int64(blockRaw)+1, i, splits, gotB, gotLocs, wantB, wantLocs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitMatchesWalk: a split inside one block is answered with the
// block's own name-sorted replica list, without allocating; over a table of
// layouts — replica lists that wrap around the worker ring included — it
// must be exactly what the general walk answers, and capacity-clamped so an
// append cannot write into the layout.
func TestSplitMatchesWalk(t *testing.T) {
	for _, tc := range []struct {
		fileBytes, blockBytes int64
		splits, replicas      int
	}{
		{1000, 100, 20, 1},
		{1000, 100, 20, 2},
		{1000, 100, 30, 3},
		{1050, 100, 11, 2},
		{5, 128, 7, 2}, // finer than a byte: some splits are empty
		{3 << 30, 128 << 20, 300, 2},
		{7 << 30, 128 << 20, 150, 3},
	} {
		s := NewBlockStore(tc.blockBytes, tc.replicas, workers)
		s.AddFile("f", tc.fileBytes)
		oneBlock := 0
		for i := 0; i < tc.splits; i++ {
			gotB, gotLocs := s.Split("f", i, tc.splits)
			wantB, wantLocs := splitFullWalk(s, "f", i, tc.splits)
			if gotB != wantB || !reflect.DeepEqual(gotLocs, wantLocs) {
				t.Fatalf("%+v split %d: got %d %v, want %d %v", tc, i, gotB, gotLocs, wantB, wantLocs)
			}
			lo := int64(i) * tc.fileBytes / int64(tc.splits)
			hi := int64(i+1) * tc.fileBytes / int64(tc.splits)
			if hi == lo || lo/tc.blockBytes != (hi-1)/tc.blockBytes {
				continue
			}
			oneBlock++
			if cap(gotLocs) != len(gotLocs) {
				t.Fatalf("%+v split %d: locations %v have spare capacity %d", tc, i, gotLocs, cap(gotLocs))
			}
			if a := testing.AllocsPerRun(20, func() { s.Split("f", i, tc.splits) }); a != 0 {
				t.Fatalf("%+v split %d lies in one block but allocated %v objects", tc, i, a)
			}
		}
		if oneBlock == 0 {
			t.Fatalf("%+v: no split inside one block", tc)
		}
	}
}

// Property: split locations are a subset of workers and split bytes are
// additive across any split count.
func TestQuickSplitsAdditive(t *testing.T) {
	f := func(fileKB uint16, splitsRaw uint8) bool {
		splits := int(splitsRaw%20) + 1
		s := NewBlockStore(4096, 2, workers)
		total := int64(fileKB) * 100
		s.AddFile("f", total)
		var sum int64
		for i := 0; i < splits; i++ {
			b, locs := s.Split("f", i, splits)
			sum += b
			for _, loc := range locs {
				found := false
				for _, w := range workers {
					if w == loc {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The store queries below serve only these tests.

// Get returns the cached partition and marks it recently used.
func (m *MemStore) Get(key CacheKey) (CacheEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, s := m.lookup(key)
	if s == nil {
		return CacheEntry{}, false
	}
	m.tick++
	s.last = m.tick
	return s.entry(key), true
}

// Location reports the node caching key, if any.
func (m *MemStore) Location(key CacheKey) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, s := m.lookup(key)
	if s == nil {
		return "", false
	}
	return s.node, true
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
