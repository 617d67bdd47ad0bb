package shuffle

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"chopper/internal/rdd"
)

// blocksFor is a map output of no pairs over numReduce buckets, charged the
// given dense payloads.
func blocksFor(numReduce int, payload ...int64) MapOutput {
	payloads := make([]int64, numReduce)
	copy(payloads, payload)
	empty, _, _ := rdd.PartitionPairsCol(nil, rdd.NewHashPartitioner(numReduce), nil)
	return MapOutput{Cols: empty, Payloads: payloads}
}

// arena writes pairs as one map task over n reduce partitions, in order,
// a pair with key k in [1, n] into bucket k-1.
func arena(t testing.TB, n int, pairs ...rdd.Pair) *rdd.ColBuckets {
	t.Helper()
	bounds := make([]any, n-1)
	for i := range bounds {
		bounds[i] = i + 1
	}
	rows := make([]rdd.Row, len(pairs))
	for i, p := range pairs {
		rows[i] = p
	}
	cols, _, err := rdd.PartitionPairsCol(rows, rdd.NewRangePartitionerWithBounds(n, bounds), nil)
	if err != nil {
		t.Fatal(err)
	}
	return cols
}

// complete reports whether every map task of the shuffle has stored output.
func complete(m *Manager, shuffleID int) bool { return m.index(shuffleID, 0).missing < 0 }

// blocks materializes a view's non-empty blocks for random access.
func blocks(v ReduceView) []*rdd.ColBlock {
	out := make([]*rdd.ColBlock, v.Len())
	for i := range out {
		out[i] = new(rdd.ColBlock)
		v.BlockInto(i, out[i])
	}
	return out
}

// pooled is a nil *rdd.Scratch: the kernels called on it take the shared
// pools.
var pooled *rdd.Scratch

// merge merges blocks, in order, with the adapter rdd.MergeReduceColN.
func merge(blocks []*rdd.ColBlock, agg *rdd.Aggregator) []rdd.Row {
	return rdd.MergeReduceColN(len(blocks), func(i int, dst *rdd.ColBlock) { *dst = *blocks[i] }, agg)
}

func TestRegisterAndWriteAccounting(t *testing.T) {
	m := NewManager(10, 10)
	m.Register(1, 2, 3)
	w := m.PutMapOutput(1, 0, "A", blocksFor(3, 100, 200, 0))
	// payload 300 + 3 blocks x 10 overhead.
	if w != 330 {
		t.Fatalf("write bytes = %d, want 330", w)
	}
	if complete(m, 1) {
		t.Fatalf("shuffle not complete with 1 of 2 maps")
	}
	// payload 100 + 3 blocks x 10 overhead (empty blocks cost the same here).
	if w := m.PutMapOutput(1, 1, "B", blocksFor(3, 50, 0, 50)); w != 130 {
		t.Fatalf("write bytes = %d, want 130", w)
	}
	if !complete(m, 1) {
		t.Fatalf("shuffle should be complete")
	}
}

func TestReduceInputOrderedByMapTask(t *testing.T) {
	m := NewManager(0, 0)
	m.Register(7, 2, 1)
	b0 := MapOutput{Cols: arena(t, 1, rdd.Pair{K: 1, V: "m0"}), Payloads: []int64{0}}
	b1 := MapOutput{Cols: arena(t, 1, rdd.Pair{K: 1, V: "m1"}), Payloads: []int64{0}}
	// Insert out of order; read must be map-task ordered.
	m.PutMapOutput(7, 1, "B", b1)
	m.PutMapOutput(7, 0, "A", b0)
	in := blocks(m.ReduceInput(7, 0))
	if len(in) != 2 || in[0].Any[0] != "m0" || in[1].Any[0] != "m1" {
		t.Fatalf("reduce input out of order: %v", in)
	}
}

func TestReduceNodeBytesPerNodeSorted(t *testing.T) {
	m := NewManager(5, 5)
	m.Register(2, 3, 2)
	m.PutMapOutput(2, 0, "B", blocksFor(2, 40, 20))
	m.PutMapOutput(2, 1, "A", blocksFor(2, 100, 10))
	m.PutMapOutput(2, 2, "A", blocksFor(2, 50, 0))
	// Per node: payload plus one 5-byte overhead per block, sorted by node.
	want := []NodeBytes{{Node: "A", Bytes: 160}, {Node: "B", Bytes: 45}}
	got := m.ReduceNodeBytes(2, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reduce 0 profile = %v, want %v", got, want)
	}
	// The slice is the caller's own: scribbling on it changes no later read.
	got[0] = NodeBytes{Node: "Z", Bytes: -1}
	if again := m.ReduceNodeBytes(2, 0); !reflect.DeepEqual(again, want) {
		t.Fatalf("profile aliased a previous result: %v", again)
	}
	best, ok := m.BestReduceNode([]int{2}, 0)
	if !ok || best != "A" {
		t.Fatalf("best node = %q", best)
	}
}

func TestReduceNodeBytesSeesPartialMapSide(t *testing.T) {
	m := NewManager(0, 0)
	m.Register(3, 2, 1)
	if got := m.ReduceNodeBytes(3, 0); len(got) != 0 {
		t.Fatalf("profile before any map output = %v, want empty", got)
	}
	if _, ok := m.BestReduceNode([]int{3}, 0); ok {
		t.Fatalf("best node reported with no output")
	}
	m.PutMapOutput(3, 1, "B", blocksFor(1, 300))
	if got := m.ReduceNodeBytes(3, 0); !reflect.DeepEqual(got, []NodeBytes{{Node: "B", Bytes: 300}}) {
		t.Fatalf("profile after one of two maps = %v", got)
	}
}

func TestBestReduceNodeAcrossShuffles(t *testing.T) {
	m := NewManager(0, 0)
	m.Register(1, 1, 1)
	m.Register(2, 1, 1)
	m.PutMapOutput(1, 0, "A", blocksFor(1, 100))
	m.PutMapOutput(2, 0, "B", blocksFor(1, 150))
	best, ok := m.BestReduceNode([]int{1, 2}, 0)
	if !ok || best != "B" {
		t.Fatalf("combined best = %q", best)
	}
}

func TestBestReduceNodeDeterministicTie(t *testing.T) {
	m := NewManager(0, 0)
	m.Register(4, 2, 1)
	m.PutMapOutput(4, 0, "B", blocksFor(1, 100))
	m.PutMapOutput(4, 1, "A", blocksFor(1, 100))
	best, _ := m.BestReduceNode([]int{4}, 0)
	if best != "A" {
		t.Fatalf("ties must break to the lexicographically first node, got %q", best)
	}
}

func TestOverheadGrowsWithReduceCount(t *testing.T) {
	// Same payload, more reduce partitions => more total shuffle bytes.
	payload := int64(1000)
	write := func(numReduce int) int64 {
		m := NewManager(96, 8)
		m.Register(1, 4, numReduce)
		var total int64
		for mt := 0; mt < 4; mt++ {
			blocks := blocksFor(numReduce)
			for i := range blocks.Payloads {
				blocks.Payloads[i] = payload / int64(numReduce)
			}
			total += m.PutMapOutput(1, mt, "A", blocks)
		}
		return total
	}
	small, large := write(10), write(500)
	if large <= small {
		t.Fatalf("shuffle bytes must grow with partition count: %d vs %d", small, large)
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	m := NewManager(0, 0)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("unknown shuffle", func() { m.ReduceInput(99, 0) })
	mustPanic("bad register", func() { m.Register(1, 0, 1) })
	m.Register(1, 1, 1)
	mustPanic("wrong block count", func() { m.PutMapOutput(1, 0, "A", blocksFor(3)) })
	mustPanic("map task range", func() { m.PutMapOutput(1, 5, "A", blocksFor(1)) })
	mustPanic("reduce before maps", func() { m.ReduceInput(1, 0) })
	m.PutMapOutput(1, 0, "A", blocksFor(1, 10))
	mustPanic("reduce range", func() { m.ReduceInput(1, 3) })
}

func TestReRegisterResets(t *testing.T) {
	m := NewManager(0, 0)
	m.Register(1, 1, 1)
	m.PutMapOutput(1, 0, "A", blocksFor(1, 10))
	m.Register(1, 2, 2)
	if complete(m, 1) {
		t.Fatalf("re-register should reset completion")
	}
	if m.mustGet(1).numReduce != 2 {
		t.Fatalf("re-register should adopt new reduce count")
	}
}

// Property: the per-node bytes of every reduce partition sum to what the
// map tasks reported writing.
func TestQuickBytesConserved(t *testing.T) {
	f := func(payloads []uint16) bool {
		numReduce := 4
		m := NewManager(7, 7)
		nMaps := len(payloads)/numReduce + 1
		m.Register(1, nMaps, numReduce)
		nodes := []string{"A", "B", "C"}
		idx := 0
		var written int64
		for mt := 0; mt < nMaps; mt++ {
			blocks := blocksFor(numReduce)
			for r := 0; r < numReduce; r++ {
				if idx < len(payloads) {
					blocks.Payloads[r] = int64(payloads[idx])
					idx++
				}
			}
			written += m.PutMapOutput(1, mt, nodes[mt%len(nodes)], blocks)
		}
		var read int64
		for r := 0; r < numReduce; r++ {
			for _, nb := range m.ReduceNodeBytes(1, r) {
				read += nb.Bytes
			}
		}
		return read == written
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRecordSize pins the manager's per-map-task record on 64-bit targets:
// the 112-byte arena header, the payload sizes, the listing pointer and
// the node index. (exec's TestMapStageBytesPerTask pins what a map stage
// keeps per task in all, on every target.)
func TestRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned size assumes 8-byte pointers")
	}
	if got := unsafe.Sizeof(mapOutput{}); got != 152 {
		t.Fatalf("a map output record is %d bytes, want 152", got)
	}
}
