package rdd

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// The combine and merge kernels share one pooled working set
// (kernelScratch). These tests cover what pooling can break: state leaking
// from one call into the next (also after a bail-out, an error or a
// panic), emitted data aliasing the scratch, the pool keeping a task's keys
// and combiners alive, a per-bucket cursor left dirty, concurrent use, and
// allocations growing with the input again. The boxed tier in split.go,
// which has no scratch, is the reference throughout.

// Flaws a scratchCall can plant in its input or aggregator.
const (
	flawNone       = iota
	flawHetero     // a key of another type at row `at`: the kernel bails mid-scan
	flawHeteroVal  // a non-float64 value (under a key of its own) at row `at`: the F64 kernel bails mid-scan
	flawNonPair    // a non-pair row at row `at`: the kernel returns an error
	flawMapPanic   // the aggregator panics on its `at`-th map-side merge
	flawMergePanic // the aggregator panics on its `at`-th reduce-side merge
)

// Aggregator shapes of a scratchCall.
const (
	aggSum    = iota // SumAggregator: map-side combine through the F64 hooks
	aggBoxed         // a boxed reduce function: map-side combine, any values
	aggGroup         // GroupAggregator: scatter on the map side, reduce-only fold
	aggNone          // plain repartition
	aggShapes        // count
)

// scratchCall is one shuffle — a few map tasks partitioned over parts
// reduce partitions, every reduce partition merged — in a sequence run on
// one goroutine, so consecutive calls reuse the same pooled scratch.
type scratchCall struct {
	strKeys  bool
	f64Vals  bool
	agg      int
	rows     int
	keys     int
	parts    int
	flaw, at int
}

func (c scratchCall) String() string {
	return fmt.Sprintf("{str=%v f64=%v agg=%d rows=%d keys=%d parts=%d flaw=%d at=%d}", c.strKeys, c.f64Vals, c.agg, c.rows, c.keys, c.parts, c.flaw, c.at)
}

// checkPooledScratch takes a scratch from each size class's pool and
// requires what every pooled one holds between calls: an all-zero cursor
// and no touched buckets, or the next layout would count from stale
// entries.
func checkPooledScratch(t *testing.T, c scratchCall) {
	for c := range scratchPools {
		s := takeScratch(64 << c)
		scratchPools[s.class].Put(s)
		if len(s.touched) != 0 {
			t.Errorf("%v: the pooled scratch lists %d touched buckets", c, len(s.touched))
		}
		for b, n := range s.cursor {
			if n != 0 {
				t.Errorf("%v: the pooled cursor holds %d at bucket %d of %d", c, n, b, len(s.cursor))
				return
			}
		}
	}
}

// tripwire wraps every merge hook of agg so that the at-th merge of the
// chosen side panics: MergeValue(F64) is the map side's merge of a
// map-side-combining aggregator, MergeCombiners(F64) its reduce side's.
func tripwire(agg *Aggregator, mapSide bool, at int) *Aggregator {
	a := *agg
	calls := 0
	trip := func() {
		if calls++; calls > at {
			panic("scratch test: aggregator gives up")
		}
	}
	if mapSide {
		mv := a.MergeValue
		a.MergeValue = func(acc, v any) any { trip(); return mv(acc, v) }
		if mvf := a.MergeValueF64; mvf != nil {
			a.MergeValueF64 = func(acc, v float64) float64 { trip(); return mvf(acc, v) }
		}
		return &a
	}
	mc := a.MergeCombiners
	a.MergeCombiners = func(x, y any) any { trip(); return mc(x, y) }
	if mcf := a.MergeCombinersF64; mcf != nil {
		a.MergeCombinersF64 = func(x, y float64) float64 { trip(); return mcf(x, y) }
	}
	return &a
}

// panics runs f and reports whether it panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// build generates the call's rows and aggregator from rng.
func (c scratchCall) build(rng *rand.Rand) ([]Row, *Aggregator) {
	rows := make([]Row, c.rows)
	for i := range rows {
		var k any = rng.Intn(c.keys)*7919 - 3
		if c.strKeys {
			k = fmt.Sprintf("key-%d", rng.Intn(c.keys))
		}
		var v any = rng.Float64() * 100
		if !c.f64Vals && i%2 == 1 {
			v = fmt.Sprintf("v%d", i)
		}
		rows[i] = Pair{K: k, V: v}
	}
	if c.at < len(rows) {
		switch c.flaw {
		case flawHetero:
			// int64 orders with int (CompareKeys), so the boxed fallback
			// can still merge; nothing orders with a string.
			rows[c.at] = Pair{K: int64(-10 - c.at), V: rows[c.at].(Pair).V}
		case flawHeteroVal:
			// Never merged (the key is its own), so a float-asserting
			// aggregator survives it on the boxed fallback.
			rows[c.at] = Pair{K: -10 - c.at, V: "not a float"}
			if c.strKeys {
				rows[c.at] = Pair{K: fmt.Sprint("odd-", c.at), V: "not a float"}
			}
		case flawNonPair:
			rows[c.at] = "not a pair"
		}
	}
	var agg *Aggregator
	switch c.agg {
	case aggSum:
		agg = SumAggregator()
		if !c.f64Vals {
			agg = ReduceAggregator(func(a, b any) any { return fmt.Sprint(a, "+", b) })
		}
	case aggBoxed:
		agg = ReduceAggregator(func(a, b any) any { return fmt.Sprint(a, "|", b) })
	case aggGroup:
		agg = GroupAggregator()
	}
	return rows, agg
}

// run executes the call on both tiers and compares them, content and
// order: every bucket of every map task, by id and by position, then every
// merged reduce partition; after it, whichever way it ended, the pooled
// scratch must be clean.
func (c scratchCall) run(t *testing.T, rng *rand.Rand) {
	t.Helper()
	defer checkPooledScratch(t, c)
	const maps = 3
	parts := c.parts
	rows, agg := c.build(rng)
	p := NewHashPartitioner(parts)

	if c.flaw == flawMapPanic || c.flaw == flawMergePanic {
		if agg == nil || !agg.MapSideCombine {
			return // nothing merges on that side
		}
		tripped := tripwire(agg, c.flaw == flawMapPanic, c.at)
		panics(func() {
			cols, boxed, err := PartitionPairsCol(rows, p, tripped)
			if err != nil || boxed != nil {
				t.Fatalf("%v: columnar partition: boxed=%v err=%v", c, boxed != nil, err)
			}
			for b := 0; b < parts; b++ {
				blk := cols.Bucket(b)
				MergeReduceCol([]*ColBlock{&blk, &blk}, tripped)
			}
		})
		return // whether it tripped or not: the next call is the check
	}

	boxedBlocks := make([][][]Pair, parts)
	colBlocks := make([][]*ColBlock, parts)
	for m := 0; m < maps; m++ {
		split := rows[m*len(rows)/maps : (m+1)*len(rows)/maps]
		want, wantErr := partitionPairs(split, p, agg)
		cols, boxed, err := PartitionPairsCol(split, p, agg)
		if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%v map %d: error %v, want %v", c, m, err, wantErr)
		}
		if err != nil {
			return
		}
		if cols != nil {
			var ids []int32
			for b, pairs := range want {
				if len(pairs) > 0 {
					ids = append(ids, int32(b))
				}
			}
			if got := cols.NonEmpty(); !slices.Equal(got, ids) {
				t.Fatalf("%v map %d: non-empty buckets %v, want %v", c, m, got, ids)
			}
			for i, b := range ids {
				var blk ColBlock
				cols.BlockInto(i, &blk)
				if got := blk.AppendPairs(nil); !pairsEqual(got, want[b]) {
					t.Fatalf("%v map %d position %d (bucket %d):\n got %v\nwant %v", c, m, i, b, got, want[b])
				}
			}
		}
		for b := 0; b < parts; b++ {
			blk := &ColBlock{Kind: ColNone}
			if cols != nil {
				cols.BucketInto(b, blk)
			} else {
				blk.Pairs = boxed[b]
			}
			if got := blk.AppendPairs(nil); !pairsEqual(got, want[b]) {
				t.Fatalf("%v map %d bucket %d:\n got %v\nwant %v", c, m, b, got, want[b])
			}
			boxedBlocks[b] = append(boxedBlocks[b], want[b])
			colBlocks[b] = append(colBlocks[b], blk)
		}
	}
	if c.flaw == flawHetero && c.strKeys {
		return // an int64 among string keys cannot be ordered by either tier
	}
	for b := 0; b < parts; b++ {
		want := mergeReduceBlocks(boxedBlocks[b], agg)
		if got := MergeReduceCol(colBlocks[b], agg); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v reduce %d:\n got %v\nwant %v", c, b, got, want)
		}
	}
}

// randomCalls draws a sequence of n calls from rng, small inputs mostly;
// one in four is a wide shuffle, up to 4096 reduce partitions over at most
// 10 rows.
func randomCalls(rng *rand.Rand, n int) []scratchCall {
	sizes := []int{0, 1, 2, 9, 40, 300, 300, 2000, 10000}
	calls := make([]scratchCall, n)
	for i := range calls {
		c := scratchCall{
			strKeys: rng.Intn(2) == 0,
			f64Vals: rng.Intn(3) != 0,
			agg:     rng.Intn(aggShapes),
			rows:    sizes[rng.Intn(len(sizes))],
			parts:   4,
		}
		if rng.Intn(4) == 0 {
			c.rows, c.parts = rng.Intn(11), 1+rng.Intn(4096)
		}
		c.keys = 1 + rng.Intn(c.rows+1)
		if rng.Intn(3) == 0 {
			c.flaw = 1 + rng.Intn(flawMergePanic)
			c.at = rng.Intn(c.rows + 1)
		}
		calls[i] = c
	}
	return calls
}

// TestKernelScratchSequences runs fixed and seeded call sequences: every
// aggregator shape over both key types and value kinds at sizes 0 to 10^4
// and as wide shuffles (10 rows over 4096 partitions, then 4 partitions
// again), each flaw followed by clean calls on the scratch it left behind.
func TestKernelScratchSequences(t *testing.T) {
	var fixed []scratchCall
	for _, shape := range [][2]int{{0, 4}, {1, 4}, {300, 4}, {10000, 4}, {10, 4096}, {9, 4}} {
		rows, parts := shape[0], shape[1]
		for _, strKeys := range []bool{false, true} {
			for _, f64Vals := range []bool{true, false} {
				for agg := 0; agg < aggShapes; agg++ {
					fixed = append(fixed, scratchCall{strKeys: strKeys, f64Vals: f64Vals, agg: agg, rows: rows, keys: rows/3 + 1, parts: parts})
				}
			}
		}
	}
	for _, strKeys := range []bool{false, true} {
		for flaw := flawHetero; flaw <= flawMergePanic; flaw++ {
			for _, agg := range []int{aggSum, aggBoxed} {
				// The flaw strikes mid-scan, with slots already filled; the
				// clean calls after it have fewer and then more keys.
				fixed = append(fixed,
					scratchCall{strKeys: strKeys, f64Vals: true, agg: agg, rows: 400, keys: 60, parts: 4, flaw: flaw, at: 37},
					scratchCall{strKeys: strKeys, f64Vals: true, agg: agg, rows: 200, keys: 20, parts: 4},
					scratchCall{strKeys: strKeys, f64Vals: agg == aggSum, agg: agg, rows: 900, keys: 500, parts: 4})
			}
		}
	}
	rng := rand.New(rand.NewSource(18))
	for _, c := range fixed {
		c.run(t, rng)
	}
	// The planted panics must really fire, or the sequences above prove
	// nothing about that path.
	for _, mapSide := range []bool{true, false} {
		agg := tripwire(SumAggregator(), mapSide, 5)
		rows, _ := scratchCall{f64Vals: true, rows: 100, keys: 10}.build(rng)
		if !panics(func() {
			cols, _, _ := PartitionPairsCol(rows, NewHashPartitioner(1), agg)
			blk := cols.Bucket(0)
			MergeReduceCol([]*ColBlock{&blk, &blk}, agg)
		}) {
			t.Fatalf("tripwire (map side %v) did not fire", mapSide)
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, c := range randomCalls(rng, 8) {
			c.run(t, rng)
		}
	}
}

// FuzzKernelScratch explores call sequences; ci.sh runs it for 5 s.
func FuzzKernelScratch(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, uint8(6))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		rng := rand.New(rand.NewSource(seed))
		for _, c := range randomCalls(rng, 1+int(n%8)) {
			c.run(t, rng)
		}
	})
}

// shuffleOnce partitions rows as one map task and merges reduce partition
// 0 of a single-partition shuffle: one pass through a combine kernel and
// one through a merge kernel.
func shuffleOnce(t testing.TB, rows []Row, agg *Aggregator) (*ColBuckets, []Row) {
	t.Helper()
	cols, boxed, err := PartitionPairsCol(rows, NewHashPartitioner(1), agg)
	if err != nil || boxed != nil {
		t.Fatalf("columnar partition: boxed=%v err=%v", boxed != nil, err)
	}
	blk := cols.Bucket(0)
	return cols, MergeReduceCol([]*ColBlock{&blk, &blk}, agg)
}

// TestKernelOutputsDoNotAliasScratch: what call 1 emitted — the arena and
// the merged rows — still equals a deep snapshot after call 2 rewrote the
// same scratch with other keys and values of the same shape.
func TestKernelOutputsDoNotAliasScratch(t *testing.T) {
	for _, strKeys := range []bool{false, true} {
		for _, agg := range []int{aggSum, aggBoxed} {
			rng := rand.New(rand.NewSource(7))
			c := scratchCall{strKeys: strKeys, f64Vals: true, agg: agg, rows: 500, keys: 120}
			rows1, a := c.build(rng)
			cols, merged := shuffleOnce(t, rows1, a)
			blk := cols.Bucket(0)
			wantArena, wantMerged := fmt.Sprint(blk.AppendPairs(nil)), fmt.Sprint(merged)

			rows2, _ := c.build(rng)
			shuffleOnce(t, rows2, a)

			if got := fmt.Sprint(blk.AppendPairs(nil)); got != wantArena {
				t.Fatalf("%v: call 2 changed call 1's arena:\n got %.200s\nwant %.200s", c, got, wantArena)
			}
			if got := fmt.Sprint(merged); got != wantMerged {
				t.Fatalf("%v: call 2 changed call 1's merged rows:\n got %.200s\nwant %.200s", c, got, wantMerged)
			}
		}
	}
}

// TestScratchReleaseRetainsNothing is the white-box retention check: after
// release the maps are empty, no element within the capacity of the
// pointer-bearing arrays is non-zero and the cursor is all zero, so a
// pooled scratch keeps no key, combiner or arena of the task before alive;
// and a scratch grown past maxPooledSlots — in slots or in cursor entries —
// is left to the collector instead.
func TestScratchReleaseRetainsNothing(t *testing.T) {
	fill := func(slots int) *kernelScratch {
		s := takeScratch(0)
		for i := 0; i < slots; i++ {
			k := fmt.Sprintf("key-%d", i)
			s.intSlots[int64(i)] = int32(i)
			s.strSlots[k] = int32(i)
			s.anySlots[k] = int32(i)
			s.strs = append(s.strs, k)
			s.anys = append(s.anys, &k)
			s.f64s = append(s.f64s, 1)
			s.buckets = append(s.buckets, 1)
		}
		sortedSlots(s, s.strs)
		return s
	}

	s := fill(maxPooledSlots)
	s.release()
	if len(s.intSlots)+len(s.strSlots)+len(s.anySlots) != 0 {
		t.Fatalf("release left %d int, %d string and %d boxed-key slots", len(s.intSlots), len(s.strSlots), len(s.anySlots))
	}
	if len(s.ints)+len(s.strs)+len(s.buckets)+len(s.f64s)+len(s.anys)+len(s.idx) != 0 {
		t.Fatalf("release left a non-empty slot array: %+v", s)
	}
	if cap(s.strs) < maxPooledSlots || cap(s.anys) < maxPooledSlots {
		t.Fatalf("release gave up the arrays' capacity: %d, %d", cap(s.strs), cap(s.anys))
	}
	for i, k := range s.strs[:cap(s.strs)] {
		if k != "" {
			t.Fatalf("released scratch still holds key %q at slot %d", k, i)
		}
	}
	for i, v := range s.anys[:cap(s.anys)] {
		if v != nil {
			t.Fatalf("released scratch still holds a combiner at slot %d", i)
		}
	}
	// The pool hands the same scratch straight back.
	if got := takeScratch(0); got != s {
		t.Fatalf("a scratch of maxPooledSlots slots was not pooled")
	}

	fat := fill(maxPooledSlots + 1)
	fat.release()
	if len(fat.strs) != maxPooledSlots+1 {
		t.Fatalf("an oversized scratch was emptied (%d slots left); it should be dropped as it is", len(fat.strs))
	}
	if got := takeScratch(0); got == fat {
		t.Fatalf("a scratch of %d slots was pooled; the bound is %d", maxPooledSlots+1, maxPooledSlots)
	}

	// The same through a real kernel call: int keys, one past the bound.
	rows := make([]Row, maxPooledSlots+1)
	for i := range rows {
		rows[i] = Pair{K: i, V: 1.0}
	}
	shuffleOnce(t, rows, SumAggregator())
	if got := takeScratch(len(rows)); cap(got.ints) > maxPooledSlots {
		t.Fatalf("the pool holds a scratch with room for %d slots after an oversized task", cap(got.ints))
	}

	// The cursor counts against the bound: a layout over maxPooledSlots
	// buckets is released all zero and pooled, one over 2^20 is dropped.
	s = takeScratch(0)
	s.layout(maxPooledSlots, []int32{7, 3, 7, maxPooledSlots - 1})
	s.release()
	if len(s.touched) != 0 || slices.ContainsFunc(s.cursor, func(n int32) bool { return n != 0 }) {
		t.Fatalf("release left touched buckets %v or a non-zero cursor entry", s.touched)
	}
	if got := takeScratch(0); got != s {
		t.Fatalf("a scratch with a %d-entry cursor was not pooled", maxPooledSlots)
	}
	wide := takeScratch(0)
	wide.layout(1<<20, []int32{5, 1<<20 - 1})
	wide.release()
	if got := takeScratch(0); got == wide {
		t.Fatalf("a scratch with a 2^20-entry cursor was pooled; the bound is %d", maxPooledSlots)
	}
}

// TestKernelsConcurrently hammers both kernels from 8 goroutines (under
// ci.sh's -race gate); every result must equal the one computed alone.
func TestKernelsConcurrently(t *testing.T) {
	const workers, iters = 8, 60
	type job struct {
		rows          []Row
		agg           *Aggregator
		arena, merged string
	}
	jobs := make([]job, workers)
	for w := range jobs {
		rng := rand.New(rand.NewSource(int64(w)))
		c := scratchCall{strKeys: w%2 == 1, f64Vals: true, agg: w % 4 / 2, rows: 300 + 50*w, keys: 40 + 10*w}
		rows, agg := c.build(rng)
		cols, merged := shuffleOnce(t, rows, agg)
		blk := cols.Bucket(0)
		jobs[w] = job{rows, agg, fmt.Sprint(blk.AppendPairs(nil)), fmt.Sprint(merged)}
	}
	var wg sync.WaitGroup
	for w := range jobs {
		wg.Add(1)
		go func(w int, j job) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cols, boxed, err := PartitionPairsCol(j.rows, NewHashPartitioner(1), j.agg)
				if err != nil || boxed != nil {
					t.Errorf("worker %d: columnar partition: boxed=%v err=%v", w, boxed != nil, err)
					return
				}
				blk := cols.Bucket(0)
				merged := MergeReduceCol([]*ColBlock{&blk, &blk}, j.agg)
				if got := fmt.Sprint(blk.AppendPairs(nil)); got != j.arena {
					t.Errorf("worker %d iteration %d: arena differs from the sequential one", w, i)
					return
				}
				if got := fmt.Sprint(merged); got != j.merged {
					t.Errorf("worker %d iteration %d: merged rows differ from the sequential ones", w, i)
					return
				}
			}
		}(w, jobs[w])
	}
	wg.Wait()
}

// TestWarmKernelsAllocateOnlyTheirOutput is the steady-state allocation
// guard, counts only: once the pooled scratch has grown to a task's size, a
// combine or partition allocates its arena, a merge its output rows, and a
// sizing pass nothing. Each row pins the exact count at two sizes — distinct
// keys for the map side, blocks for the reduce side — so the count neither
// creeps up nor grows with the keys or the block count.
func TestWarmKernelsAllocateOnlyTheirOutput(t *testing.T) {
	p := NewHashPartitioner(8)
	sum := SumAggregator()
	// Int keys are spread to >= 256 (smaller ints box for free); string
	// keys are distinct 9-byte strings.
	intRows := func(rows, keys int) []Row {
		out := make([]Row, rows)
		for i := range out {
			out[i] = Pair{K: 1000 + (i%keys)*7919, V: float64(i)}
		}
		return out
	}
	strRows := func(rows, keys int) []Row {
		out := make([]Row, rows)
		for i := range out {
			out[i] = Pair{K: fmt.Sprintf("key-%05d", i%keys), V: float64(i)}
		}
		return out
	}
	// arena partitions rows over nparts buckets, failing if it falls back
	// to the boxed tier.
	arena := func(t *testing.T, rows []Row, nparts int, agg *Aggregator) *ColBuckets {
		cols, _, err := PartitionPairsCol(rows, NewHashPartitioner(nparts), agg)
		if err != nil || cols == nil {
			t.Fatalf("%d rows fell back to the boxed tier: %v", len(rows), err)
		}
		return cols
	}
	partition := func(rows func(int, int) []Row, agg *Aggregator, kind ColKind) func(*testing.T, int) func() {
		return func(t *testing.T, keys int) func() {
			in := rows(2*keys, keys)
			return func() {
				if cols, _, err := PartitionPairsCol(in, p, agg); err != nil || cols == nil || cols.Kind() != kind {
					t.Fatalf("partition of %d rows: %v, %v", len(in), cols, err)
				}
			}
		}
	}
	// merge splits 512 keys, each occurring twice, over the given number of
	// map tasks, each writing one bucket: the views a reduce task reads.
	const keys = 512
	merge := func(rows func(int, int) []Row, agg *Aggregator, want int) func(*testing.T, int) func() {
		return func(t *testing.T, blocks int) func() {
			in := rows(2*keys, keys)
			blks := make([]*ColBlock, blocks)
			for m := range blks {
				blk := arena(t, in[m*len(in)/blocks:(m+1)*len(in)/blocks], 1, agg).Bucket(0)
				blks[m] = &blk
			}
			return func() {
				if out := MergeReduceCol(blks, agg); len(out) != want {
					t.Fatalf("merge of %d blocks: %d rows, want %d", blocks, len(out), want)
				}
			}
		}
	}
	// The aggregator-free partition keeps every row in its scratch, so its
	// larger size stays under maxPooledSlots rows (a bigger scratch is not
	// pooled, by design).
	cases := []struct {
		name  string
		sizes [2]int // the two key or block counts the count must hold across
		run   func(t *testing.T, n int) func()
		want  float64
	}{
		{"int-key combine", [2]int{100, 10000}, partition(intRows, sum, ColIntF64), 4},
		{"string-key combine", [2]int{100, 10000}, partition(strRows, sum, ColStrF64), 5},
		{"aggregator-free partition", [2]int{100, 5000}, partition(intRows, nil, ColIntF64), 4},
		// One []Row, the boxes of each emitted row (the Pair, its key, its
		// value; a string key is one more) and the scratch block headers
		// the get callback makes escape.
		{"int-key merge", [2]int{16, 256}, merge(intRows, sum, keys), 1539},
		{"string-key merge", [2]int{16, 256}, merge(strRows, sum, keys), 2051},
		{"no-aggregator merge", [2]int{16, 256}, merge(intRows, nil, 2*keys), 3079},
		{"LogicalPairsBytes", [2]int{100, 10000}, func(_ *testing.T, k int) func() {
			pairs := make([]Pair, 2*k)
			for i, r := range intRows(2*k, k) {
				pairs[i] = r.(Pair)
			}
			return func() { LogicalPairsBytes(pairs, 1000) }
		}, 0},
		{"ColBlock.LogicalBytes", [2]int{100, 10000}, func(_ *testing.T, k int) func() {
			blk := &ColBlock{Kind: ColIntF64, Int: make([]int64, 2*k), F64: make([]float64, 2*k)}
			return func() { blk.LogicalBytes(1000) }
		}, 0},
		{"ColBuckets.LogicalBytes", [2]int{100, 10000}, func(t *testing.T, k int) func() {
			cols := arena(t, intRows(2*k, k), 1, nil)
			return func() { cols.LogicalBytes(0, 1000) }
		}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, n := range c.sizes {
				if got := testing.AllocsPerRun(20, c.run(t, n)); got != c.want {
					t.Errorf("warm %s at %d: %v objects per call, want %v", c.name, n, got, c.want)
				}
			}
		})
	}
}

// TestWarmCoGroupAllocatesTwoPerKey pins a warm cogroup task at its output,
// its slabs and, per key, the output Pair and its [][]any header: k keys
// cost 2k + 3 objects over two narrow sides and 2k + 2 over two shuffled
// ones (no values slab), the same constant at 16 and at 1024 keys. A warm
// join task over m matches costs its output and, per match, the Pair and
// its JoinedValue: 2m + 1.
func TestWarmCoGroupAllocatesTwoPerKey(t *testing.T) {
	ctx := NewContext(2)
	p := NewHashPartitioner(1)
	byP, loose := ctx.Parallelize(nil, 1).PartitionBy(p), ctx.Parallelize(nil, 1)
	// Keys >= 256 and values boxed up front: reading the input boxes
	// nothing. Each key has two values per side, as two records (narrow) or
	// as one merged group (shuffled).
	input := func(keys int, narrow bool) []Row {
		var rows []Row
		for k := 0; k < keys; k++ {
			key, a, b := any(1000+k*7919), any(float64(k)), any(float64(-k))
			if narrow {
				rows = append(rows, Pair{K: key, V: a}, Pair{K: key, V: b})
			} else {
				rows = append(rows, Pair{K: key, V: []any{a, b}})
			}
		}
		return rows
	}
	for _, keys := range []int{16, 1024} {
		for _, c := range []struct {
			name   string
			cg     *RDD
			narrow bool
			extra  float64
		}{
			{"narrow/narrow cogroup", byP.CoGroup(byP, p), true, 3},
			{"shuffled/shuffled cogroup", loose.CoGroup(loose, p), false, 2},
		} {
			in := [][]Row{input(keys, c.narrow), input(keys, c.narrow)}
			got := testing.AllocsPerRun(20, func() {
				if out := c.cg.Compute(0, in); len(out) != keys {
					t.Fatalf("%s: %d rows, want %d", c.name, len(out), keys)
				}
			})
			if want := 2*float64(keys) + c.extra; got != want {
				t.Errorf("warm %s over %d keys: %v objects per call, want %v", c.name, keys, got, want)
			}
		}
		cogrouped := [][]Row{byP.CoGroup(byP, p).Compute(0, [][]Row{input(keys, true), input(keys, true)})}
		join, matches := byP.Join(byP, p), 4*keys
		got := testing.AllocsPerRun(20, func() {
			if out := join.Compute(0, cogrouped); len(out) != matches {
				t.Fatalf("join: %d rows, want %d", len(out), matches)
			}
		})
		if want := 2*float64(matches) + 1; got != want {
			t.Errorf("warm join over %d matches: %v objects per call, want %v", matches, got, want)
		}
	}
}
