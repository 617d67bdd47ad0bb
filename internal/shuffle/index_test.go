package shuffle

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"chopper/internal/rdd"
)

// panicMessage runs f and returns what it panicked with ("" if it
// returned normally).
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// randomOutput writes one map task's output the way the engine does —
// a columnar arena for int keys (segment-less with nil Payloads when there
// are none) — sparse enough that most buckets stay empty; or, one time in
// three, the boxed tier's arena of int64 keys, charged payload sizes drawn
// independently of the rows, so a test can tell charged bytes from visited
// blocks.
func randomOutput(t testing.TB, rng *rand.Rand, numReduce int) MapOutput {
	rows := rng.Intn(2 * numReduce)
	if rng.Intn(3) == 0 {
		rows = 0
	}
	boxed := rng.Intn(3) == 0
	in := make([]rdd.Row, rows)
	for i := range in {
		var k any = rng.Intn(7 * numReduce)
		if boxed {
			k = int64(k.(int))
		}
		in[i] = rdd.Pair{K: k, V: float64(rng.Intn(50))}
	}
	var agg *rdd.Aggregator
	if !boxed && rng.Intn(2) == 0 {
		agg = rdd.SumAggregator()
	}
	cols, _, err := rdd.PartitionPairsCol(in, rdd.NewHashPartitioner(numReduce), agg)
	if err != nil {
		t.Fatal(err)
	}
	if boxed {
		out := MapOutput{Cols: cols, Payloads: make([]int64, numReduce)}
		for r := range out.Payloads {
			if rng.Intn(2) == 0 {
				out.Payloads[r] = int64(rng.Intn(1000))
			}
		}
		return out
	}
	if cols.Len() == 0 {
		return MapOutput{Cols: cols}
	}
	payloads := make([]int64, numReduce)
	for r := range payloads {
		payloads[r] = int64(cols.LogicalBytes(r, 1))
	}
	return MapOutput{Cols: cols, Payloads: payloads}
}

// sparseForm rewrites a dense output the way the engine writes one: the
// buckets that hold rows (or, in the boxed outputs, are charged a payload)
// listed ascending, with their payloads alongside.
func sparseForm(out MapOutput) MapOutput {
	sp := MapOutput{Cols: out.Cols, NonEmpty: []int32{}}
	for r, p := range out.Payloads {
		if p != 0 || out.Cols.BucketLen(r) > 0 {
			sp.NonEmpty = append(sp.NonEmpty, int32(r))
			sp.Payloads = append(sp.Payloads, p)
		}
	}
	return sp
}

// model is the brute-force reference: the outputs exactly as the test
// generated them, in dense form, walked map task by map task for every
// question — whichever form the manager was handed.
type model struct {
	overhead, empty int64
	numReduce       int
	nodes           []string
	outs            []*MapOutput
}

func (md *model) block(mt, r int) *rdd.ColBlock {
	blk := &rdd.ColBlock{}
	md.outs[mt].Cols.BucketInto(r, blk)
	return blk
}

// blockBytes is what block (mt, r) is charged: payload plus overhead.
func (md *model) blockBytes(mt, r int) int64 {
	if o := md.outs[mt]; o.Payloads != nil && o.Payloads[r] != 0 {
		return o.Payloads[r] + md.overhead
	}
	return md.empty
}

func (md *model) nodeBytes(r int) []NodeBytes {
	totals := map[string]int64{}
	for mt, o := range md.outs {
		if o != nil {
			totals[md.nodes[mt]] += md.blockBytes(mt, r)
		}
	}
	out := []NodeBytes{}
	for n, b := range totals {
		out = append(out, NodeBytes{Node: n, Bytes: b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

func (md *model) bestNode(r int) (string, bool) {
	best, ok := NodeBytes{}, false
	for _, nb := range md.nodeBytes(r) { // sorted by name: first maximum wins
		if !ok || nb.Bytes > best.Bytes {
			best, ok = nb, true
		}
	}
	return best.Node, ok
}

// checkAgainstModel compares every index answer for every reduce partition
// with the brute-force walk.
func checkAgainstModel(t testing.TB, m *Manager, id int, md *model) {
	t.Helper()
	missing := -1
	for mt, o := range md.outs {
		if o == nil {
			missing = mt
			break
		}
	}
	for r := 0; r < md.numReduce; r++ {
		if got, want := m.ReduceNodeBytes(id, r), md.nodeBytes(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("reduce %d: node bytes %v, want %v", r, got, want)
		}
		wantBest, wantOK := md.bestNode(r)
		if best, ok := m.BestReduceNode([]int{id}, r); best != wantBest || ok != wantOK {
			t.Fatalf("reduce %d: best node %q/%v, want %q/%v", r, best, ok, wantBest, wantOK)
		}
		if missing >= 0 {
			want := fmt.Sprintf("shuffle %d: reduce read before map %d finished", id, missing)
			if got := panicMessage(func() { m.ReduceInput(id, r) }); got != want {
				t.Fatalf("reduce %d at partial completion: panic %q, want %q", r, got, want)
			}
			continue
		}
		var all, nonEmpty []*rdd.ColBlock
		for mt := range md.outs {
			blk := md.block(mt, r)
			all = append(all, blk)
			if blk.Len() > 0 {
				nonEmpty = append(nonEmpty, blk)
			}
		}
		view := m.ReduceInput(id, r)
		if got, want := view.NodeBytes(), md.nodeBytes(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("reduce %d: view node bytes %v, want %v", r, got, want)
		}
		if view.Len() != len(nonEmpty) {
			t.Fatalf("reduce %d: view holds %d blocks, want the %d non-empty ones", r, view.Len(), len(nonEmpty))
		}
		refs := view.Refs()
		if len(refs.Blocks) != view.Len() || cap(refs.Blocks) != len(refs.Blocks) {
			t.Fatalf("reduce %d: %d refs (capacity %d) for %d blocks", r, len(refs.Blocks), cap(refs.Blocks), view.Len())
		}
		if len(refs.Arenas) != len(md.outs) || cap(refs.Arenas) != len(refs.Arenas) {
			t.Fatalf("reduce %d: %d arenas (capacity %d) for %d map tasks", r, len(refs.Arenas), cap(refs.Arenas), len(md.outs))
		}
		for i, want := range nonEmpty {
			var got, byRef rdd.ColBlock
			view.BlockInto(i, &got)
			refs.Into(i, &byRef)
			if !reflect.DeepEqual(got.AppendPairs(nil), want.AppendPairs(nil)) {
				t.Fatalf("reduce %d: block %d out of map-task order", r, i)
			}
			if !reflect.DeepEqual(byRef, got) || byRef.Len() != want.Len() {
				t.Fatalf("reduce %d: ref %d (%d pairs) reads %+v, BlockInto %+v", r, i, byRef.Len(), byRef, got)
			}
		}
		for _, agg := range []*rdd.Aggregator{nil, rdd.SumAggregator()} {
			want := merge(all, agg)
			if got := pooled.MergeReduceRefs(refs, agg); !reflect.DeepEqual(got, want) {
				t.Fatalf("reduce %d: merged rows %v, want %v", r, got, want)
			}
			if got := rdd.MergeReduceColN(view.Len(), view.BlockInto, agg); !reflect.DeepEqual(got, want) {
				t.Fatalf("reduce %d: rows merged from views %v, want %v", r, got, want)
			}
		}
	}
}

// runIndexScenario drives one random shuffle through puts in random
// order, reads at partial completion, re-puts onto different nodes, and a
// re-Register, checking the index against the model after every step that
// could leave a stale one behind.
func runIndexScenario(t testing.TB, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pool := []string{"A", "B", "C", "D"}[:1+rng.Intn(4)]
	m := NewManager(int64(rng.Intn(100)), int64(rng.Intn(10)))
	const id = 5
	for gen := 0; gen < 2; gen++ { // the second generation re-Registers the id
		md := &model{overhead: m.overheadBytes, empty: m.emptyBytes, numReduce: 1 + rng.Intn(9)}
		numMaps := 1 + rng.Intn(12)
		md.nodes, md.outs = make([]string, numMaps), make([]*MapOutput, numMaps)
		m.Register(id, numMaps, md.numReduce)
		put := func(mt int) {
			out := randomOutput(t, rng, md.numReduce)
			md.nodes[mt], md.outs[mt] = pool[rng.Intn(len(pool))], &out
			var want int64
			for r := 0; r < md.numReduce; r++ {
				want += md.blockBytes(mt, r)
			}
			fed := out
			if rng.Intn(2) == 0 {
				fed = sparseForm(out)
			}
			if got := m.PutMapOutput(id, mt, md.nodes[mt], fed); got != want {
				t.Fatalf("map %d (sparse=%v) wrote %d bytes, want %d", mt, fed.NonEmpty != nil, got, want)
			}
		}
		checkAgainstModel(t, m, id, md)
		for _, mt := range rng.Perm(numMaps) {
			put(mt)
			if rng.Intn(3) == 0 {
				checkAgainstModel(t, m, id, md)
			}
		}
		checkAgainstModel(t, m, id, md)
		for i := rng.Intn(3); i > 0; i-- { // re-put after completion
			put(rng.Intn(numMaps))
			checkAgainstModel(t, m, id, md)
		}
	}
}

func TestIndexMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		runIndexScenario(t, seed)
	}
}

func FuzzShuffleIndex(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1 << 40, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { runIndexScenario(t, seed) })
}

// TestSparseEqualsDense stores the same outputs once in each form and
// requires the two managers to answer everything identically.
func TestSparseEqualsDense(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numMaps, numReduce := 1+rng.Intn(10), 1+rng.Intn(12)
		dense, sparse := NewManager(96, 8), NewManager(96, 8)
		dense.Register(1, numMaps, numReduce)
		sparse.Register(1, numMaps, numReduce)
		for mt := 0; mt < numMaps; mt++ {
			out, node := randomOutput(t, rng, numReduce), fmt.Sprintf("N%d", rng.Intn(3))
			d, s := dense.PutMapOutput(1, mt, node, out), sparse.PutMapOutput(1, mt, node, sparseForm(out))
			if d != s {
				t.Fatalf("seed %d map %d: dense put wrote %d bytes, sparse %d", seed, mt, d, s)
			}
			if out.Payloads != nil && len(out.Payloads) != numReduce {
				t.Fatalf("seed %d map %d: the put rewrote the caller's dense table", seed, mt)
			}
		}
		for r := 0; r < numReduce; r++ {
			if d, s := dense.ReduceNodeBytes(1, r), sparse.ReduceNodeBytes(1, r); !reflect.DeepEqual(d, s) {
				t.Fatalf("seed %d reduce %d: node bytes dense %v, sparse %v", seed, r, d, s)
			}
			db, dok := dense.BestReduceNode([]int{1}, r)
			sb, sok := sparse.BestReduceNode([]int{1}, r)
			if db != sb || dok != sok {
				t.Fatalf("seed %d reduce %d: best node dense %q/%v, sparse %q/%v", seed, r, db, dok, sb, sok)
			}
			dv, sv := dense.ReduceInput(1, r), sparse.ReduceInput(1, r)
			if dv.Len() != sv.Len() || !reflect.DeepEqual(dv.NodeBytes(), sv.NodeBytes()) {
				t.Fatalf("seed %d reduce %d: views differ: %d blocks %v vs %d blocks %v",
					seed, r, dv.Len(), dv.NodeBytes(), sv.Len(), sv.NodeBytes())
			}
			for _, agg := range []*rdd.Aggregator{nil, rdd.SumAggregator()} {
				d, s := pooled.MergeReduceRefs(dv.Refs(), agg), pooled.MergeReduceRefs(sv.Refs(), agg)
				if !reflect.DeepEqual(d, s) {
					t.Fatalf("seed %d reduce %d: merged rows dense %v, sparse %v", seed, r, d, s)
				}
			}
		}
	}
}

// TestChargedEmptyArenaBuckets: an output may charge a payload to an arena
// bucket that holds no pair (densely, or in a hand-made sparse list), so
// it lists buckets the arena does not and PutMapOutput must resolve arena
// positions by search; every answer must still match the brute-force walk.
func TestChargedEmptyArenaBuckets(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager(96, 8)
		md := &model{overhead: 96, empty: 8, numReduce: 1 + rng.Intn(12)}
		numMaps := 1 + rng.Intn(6)
		md.nodes, md.outs = make([]string, numMaps), make([]*MapOutput, numMaps)
		m.Register(1, numMaps, md.numReduce)
		for mt := 0; mt < numMaps; mt++ {
			out := randomOutput(t, rng, md.numReduce)
			if out.Cols != nil {
				if out.Payloads == nil {
					out.Payloads = make([]int64, md.numReduce)
				}
				for r := range out.Payloads {
					if out.Payloads[r] == 0 && rng.Intn(2) == 0 {
						out.Payloads[r] = int64(1 + rng.Intn(100))
					}
				}
			}
			md.nodes[mt], md.outs[mt] = fmt.Sprintf("N%d", rng.Intn(3)), &out
			fed := out
			if rng.Intn(2) == 0 {
				fed = sparseForm(out)
			}
			m.PutMapOutput(1, mt, md.nodes[mt], fed)
		}
		checkAgainstModel(t, m, 1, md)
	}
}

// TestMalformedSparseOutputPanics: ids that are unsorted, repeated, out of
// range or not as many as the payloads are refused, naming the shuffle.
func TestMalformedSparseOutputPanics(t *testing.T) {
	m := NewManager(10, 1)
	m.Register(3, 1, 4)
	empty := arena(t, 4)
	for name, out := range map[string]MapOutput{
		"no arena":        {NonEmpty: []int32{1}, Payloads: []int64{5}},
		"unsorted":        {Cols: empty, NonEmpty: []int32{2, 1}, Payloads: []int64{5, 5}},
		"repeated":        {Cols: empty, NonEmpty: []int32{1, 1}, Payloads: []int64{5, 5}},
		"past the end":    {Cols: empty, NonEmpty: []int32{1, 4}, Payloads: []int64{5, 5}},
		"negative":        {Cols: empty, NonEmpty: []int32{-1, 2}, Payloads: []int64{5, 5}},
		"fewer payloads":  {Cols: empty, NonEmpty: []int32{1, 2}, Payloads: []int64{5}},
		"ids, no payload": {Cols: empty, NonEmpty: []int32{1}},
	} {
		if msg := panicMessage(func() { m.PutMapOutput(3, 0, "A", out) }); !strings.HasPrefix(msg, "shuffle 3: ") {
			t.Errorf("%s: panic %q, want one naming shuffle 3", name, msg)
		}
	}
	if complete(m, 3) {
		t.Fatalf("a refused output was stored")
	}
}

// TestViewHoldsOnlyNonEmptyBlocks pins the view's shape on a hand-built
// case: three map tasks, of which one wrote nothing at all and one wrote
// nothing for reduce 1.
func TestViewHoldsOnlyNonEmptyBlocks(t *testing.T) {
	m := NewManager(10, 1)
	m.Register(1, 3, 2)
	m.PutMapOutput(1, 0, "A", MapOutput{Cols: arena(t, 2, rdd.Pair{K: 1, V: "m0"}), Payloads: []int64{5, 0}})
	empty, _, err := rdd.PartitionPairsCol(nil, rdd.NewHashPartitioner(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := m.PutMapOutput(1, 1, "B", MapOutput{Cols: empty}); w != 2 {
		t.Fatalf("a map task without rows wrote %d bytes, want 2 empty-block entries", w)
	}
	m.PutMapOutput(1, 2, "A", MapOutput{Cols: arena(t, 2, rdd.Pair{K: 1, V: "m2"}, rdd.Pair{K: 2, V: "m2"}), Payloads: []int64{5, 5}})

	v := m.ReduceInput(1, 0)
	if v.Len() != 2 {
		t.Fatalf("reduce 0 sees %d blocks, want 2", v.Len())
	}
	for i, want := range []string{"m0", "m2"} {
		var blk rdd.ColBlock
		v.BlockInto(i, &blk)
		if blk.Len() != 1 || blk.Any[0] != want {
			t.Fatalf("block %d = %+v, want the row of %s", i, blk, want)
		}
	}
	// Empty blocks are charged even though they are never visited.
	want := []NodeBytes{{Node: "A", Bytes: 30}, {Node: "B", Bytes: 1}}
	if got := v.NodeBytes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reduce 0 node bytes = %v, want %v", got, want)
	}
	if v := m.ReduceInput(1, 1); v.Len() != 1 {
		t.Fatalf("reduce 1 sees %d blocks, want 1", v.Len())
	}
}

// sealedSquare stores n sparse map outputs over n reduce partitions.
func sealedSquare(t testing.TB, n int) *Manager {
	m := NewManager(96, 8)
	m.Register(1, n, n)
	rng := rand.New(rand.NewSource(int64(n)))
	for mt := 0; mt < n; mt++ {
		m.PutMapOutput(1, mt, fmt.Sprintf("N%d", mt%5), randomOutput(t, rng, n))
	}
	return m
}

// TestReduceReadAllocsIndependentOfMaps is the machine-independent scaling
// guard: one reduce read (view plus locality profile) on a sealed shuffle
// allocates nothing at 150 and at 900 map tasks — the view's profile is
// the index's own row.
func TestReduceReadAllocsIndependentOfMaps(t *testing.T) {
	allocs := func(n int) float64 {
		m := sealedSquare(t, n)
		m.ReduceInput(1, 0) // build the index outside the measurement
		r := 0
		return testing.AllocsPerRun(200, func() {
			r = (r + 1) % n
			v := m.ReduceInput(1, r)
			if len(v.NodeBytes()) != 5 {
				t.Fatal("profile lost a node")
			}
		})
	}
	small, large := allocs(150), allocs(900)
	if small != 0 || large != 0 {
		t.Fatalf("allocs per reduce read: %v at 150 maps, %v at 900; want 0", small, large)
	}
}

// TestRePutLeavesLiveViewAlone: a re-put drops the index, but a view taken
// before it keeps the old index, whose refs hold the old arena: the old
// view keeps merging the old rows and reporting the old profile; a new view
// sees the new output.
func TestRePutLeavesLiveViewAlone(t *testing.T) {
	m := NewManager(10, 1)
	m.Register(1, 2, 1)
	put := func(mt int, node string, v float64) {
		out, _, err := rdd.PartitionPairsCol([]rdd.Row{rdd.Pair{K: mt, V: v}}, rdd.NewHashPartitioner(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		m.PutMapOutput(1, mt, node, MapOutput{Cols: out, NonEmpty: out.NonEmpty(), Payloads: []int64{5}})
	}
	put(0, "A", 1)
	put(1, "B", 2)
	old := m.ReduceInput(1, 0)
	oldRows := pooled.MergeReduceRefs(old.Refs(), nil)
	oldProfile := slices.Clone(old.NodeBytes())

	put(0, "B", 3)
	if got := pooled.MergeReduceRefs(old.Refs(), nil); !reflect.DeepEqual(got, oldRows) {
		t.Fatalf("a re-put changed a live view's rows: %v, was %v", got, oldRows)
	}
	if !reflect.DeepEqual(old.NodeBytes(), oldProfile) {
		t.Fatalf("a re-put changed a live view's profile: %v, was %v", old.NodeBytes(), oldProfile)
	}
	fresh := m.ReduceInput(1, 0)
	want := []rdd.Row{rdd.Pair{K: 0, V: 3.0}, rdd.Pair{K: 1, V: 2.0}}
	if got := pooled.MergeReduceRefs(fresh.Refs(), nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("a view after the re-put merged %v, want %v", got, want)
	}
	if got := fresh.NodeBytes(); !reflect.DeepEqual(got, []NodeBytes{{Node: "B", Bytes: 30}}) {
		t.Fatalf("a view after the re-put reports %v, want all 30 bytes on B", got)
	}
}

func TestRetireDropsIndex(t *testing.T) {
	m := sealedSquare(t, 8)
	m.ReduceInput(1, 0)
	st := m.mustGet(1)
	if st.idx == nil {
		t.Fatalf("a read of a sealed shuffle must leave its index behind")
	}
	m.RetireExcept(nil)
	if st.idx != nil {
		t.Fatalf("retirement kept the index, and with it every arena, alive")
	}
	for name, read := range map[string]func(){
		"ReduceInput":     func() { m.ReduceInput(1, 0) },
		"ReduceNodeBytes": func() { m.ReduceNodeBytes(1, 0) },
	} {
		if msg := panicMessage(read); !strings.Contains(msg, "read after retirement") {
			t.Fatalf("%s after retirement panicked with %q, want the lifecycle message", name, msg)
		}
	}
}

// TestRacingFirstRead: goroutines racing the first read of a complete
// shuffle share one index and merge the same rows (run under -race).
func TestRacingFirstRead(t *testing.T) {
	const n, readers = 40, 8
	m := sealedSquare(t, n)
	rows := make([][][]rdd.Row, readers)
	var wg sync.WaitGroup
	for g := range rows {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < n; r++ {
				v := m.ReduceInput(1, r)
				v.NodeBytes()
				rows[g] = append(rows[g], pooled.MergeReduceRefs(v.Refs(), nil))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < readers; g++ {
		if !reflect.DeepEqual(rows[g], rows[0]) {
			t.Fatalf("reader %d merged different rows than reader 0", g)
		}
	}
}
