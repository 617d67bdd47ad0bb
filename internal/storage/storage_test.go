package storage

import (
	"reflect"
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
	m.Clear()
	if m.NodeUsed("A") != 0 {
		t.Fatalf("clear should reset usage")
	}
	if _, ok := m.Get(CacheKey{1, 0, 4}); ok {
		t.Fatalf("clear should drop entries")
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
