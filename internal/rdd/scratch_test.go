package rdd

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// The combine and merge kernels reuse one working set (kernelScratch),
// pooled or owned by a compute worker's Scratch. These tests cover what
// reuse can break: state leaking from one call into the next (also after a
// bail-out, an error or a panic), emitted data aliasing the scratch, a
// kept scratch holding a task's keys and combiners alive, a per-bucket
// cursor left dirty, concurrent use, an owned scratch escaping to the
// pools, and allocations growing with the input again. The boxed tier in
// split.go, which has no scratch, is the reference throughout.

// pooled is a nil *Scratch: the kernels called on it take the shared pools.
var pooled *Scratch

// partitionOn is PartitionPairsCol on w's scratch.
func partitionOn(w *Scratch, rows []Row, p Partitioner, agg *Aggregator) (*ColBuckets, [][]Pair, error) {
	cols := new(ColBuckets)
	if err := w.PartitionPairsInto(rows, p, agg, cols); err != nil {
		return nil, nil, err
	}
	return cols, cols.boxedBuckets(), nil
}

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

// Int key sets of a scratchCall: what the slot table must get right.
const (
	keysSpread  = iota // rng.Intn(keys)·7919 − 3
	keysExtreme        // 0, ±1, math.MinInt64, math.MaxInt64 and their neighbours, and negatives
	keysWide           // multiples of 2^32 of both signs: one low word for all
	keysDense          // a dense run from a random base
	keysBig            // every row its own key: more slots than maxPooledSlots
)

// scratchCall is one shuffle — a few map tasks partitioned over parts
// reduce partitions, every reduce partition merged — in a sequence run on
// one goroutine, so consecutive calls reuse the same pooled or owned
// scratch.
type scratchCall struct {
	strKeys  bool
	f64Vals  bool
	agg      int
	rows     int
	keys     int
	keySet   int
	base     int64 // keysDense's first key; keysBig's keys are row ^ base
	parts    int
	flaw, at int
}

func (c scratchCall) String() string {
	return fmt.Sprintf("{str=%v f64=%v agg=%d rows=%d keys=%d set=%d base=%d parts=%d flaw=%d at=%d}", c.strKeys, c.f64Vals, c.agg, c.rows, c.keys, c.keySet, c.base, c.parts, c.flaw, c.at)
}

// intKey draws row i's int key from the call's key set.
func (c scratchCall) intKey(rng *rand.Rand, i int) int64 {
	switch c.keySet {
	case keysExtreme:
		edges := [...]int64{0, 1, -1, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
		if j := rng.Intn(len(edges) + c.keys); j < len(edges) {
			return edges[j]
		}
		return -1 - int64(rng.Intn(c.keys))
	case keysWide:
		return int64(rng.Intn(c.keys)-c.keys/2) << 32
	case keysDense:
		return c.base + int64(rng.Intn(c.keys))
	case keysBig:
		return int64(i) ^ c.base
	}
	return int64(rng.Intn(c.keys)*7919 - 3)
}

// checkPooledScratch takes a scratch from each size class's pool, and
// looks at each one w owns, and requires what every kept one holds between
// calls: an all-zero cursor and no touched buckets, or the next layout
// would count from stale entries.
func checkPooledScratch(t *testing.T, c scratchCall, w *Scratch) {
	check := func(s *kernelScratch, whose string) {
		if len(s.touched) != 0 {
			t.Errorf("%v: the %s scratch lists %d touched buckets", c, whose, len(s.touched))
		}
		for b, n := range s.cursor {
			if n != 0 {
				t.Errorf("%v: the %s cursor holds %d at bucket %d of %d", c, whose, n, b, len(s.cursor))
				return
			}
		}
	}
	for cl := range scratchPools {
		s := takeScratch(64 << cl)
		check(s, "pooled") // before the Put: then another goroutine may take it
		scratchPools[s.class].Put(s)
		if w != nil && w.own[cl] != nil {
			check(w.own[cl], "owned")
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
		var k any = int(c.intKey(rng, i))
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

// run executes the call on both tiers, the kernels on w's scratch, and
// compares them, content and order: every bucket of every map task, by id
// and by position, then every merged reduce partition; after it, whichever
// way it ended, the pooled and the owned scratch must be clean.
func (c scratchCall) run(t *testing.T, rng *rand.Rand, w *Scratch) {
	t.Helper()
	defer checkPooledScratch(t, c, w)
	const maps = 3
	parts := c.parts
	rows, agg := c.build(rng)
	p := NewHashPartitioner(parts)
	checkSlotTable(t, c, rows)

	if c.flaw == flawMapPanic || c.flaw == flawMergePanic {
		if agg == nil || !agg.MapSideCombine {
			return // nothing merges on that side
		}
		tripped := tripwire(agg, c.flaw == flawMapPanic, c.at)
		panics(func() {
			cols, boxed, err := partitionOn(w, rows, p, tripped)
			if err != nil || (boxed != nil) != (c.strKeys && len(rows) > 0) {
				t.Fatalf("%v: partition: boxed=%v err=%v", c, boxed != nil, err)
			}
			for b := 0; b < parts; b++ {
				refs := bucketRefs(cols, b)
				refs = joinRefs(refs, refs)
				w.MergeReduceRefs(refs, tripped)
				var typed ColBlock
				w.MergeTypedRefs(refs, tripped, &typed)
			}
		})
		return // whether it tripped or not: the next call is the check
	}

	boxedBlocks := make([][][]Pair, parts)
	colRefs := make([]Refs, parts)
	for m := 0; m < maps; m++ {
		split := rows[m*len(rows)/maps : (m+1)*len(rows)/maps]
		want, wantErr := partitionPairs(split, p, agg)
		cols, boxed, err := partitionOn(w, split, p, agg)
		if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%v map %d: error %v, want %v", c, m, err, wantErr)
		}
		if err != nil {
			return
		}
		if boxed != nil && !reflect.DeepEqual(boxed, want) {
			t.Fatalf("%v map %d: boxed buckets\n got %v\nwant %v", c, m, boxed, want)
		}
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
		for b := 0; b < parts; b++ {
			blk := new(ColBlock)
			cols.BucketInto(b, blk)
			if got := blk.AppendPairs(nil); !pairsEqual(got, want[b]) {
				t.Fatalf("%v map %d bucket %d:\n got %v\nwant %v", c, m, b, got, want[b])
			}
			boxedBlocks[b] = append(boxedBlocks[b], want[b])
			colRefs[b] = joinRefs(colRefs[b], bucketRefs(cols, b))
		}
	}
	if c.flaw == flawHetero && c.strKeys {
		return // an int64 among string keys cannot be ordered by either tier
	}
	for b := 0; b < parts; b++ {
		want := mergeReduceBlocks(boxedBlocks[b], agg)
		if got := w.MergeReduceRefs(colRefs[b], agg); !sameRows(got, want) {
			t.Fatalf("%v reduce %d:\n got %v\nwant %v", c, b, got, want)
		}
		checkTypedMerge(t, w, colRefs[b], agg, want)
	}
}

// checkSlotTable feeds the int keys of rows, in order, through the slot
// table of a scratch of their size class and checks every answer against a
// map numbering the keys by first occurrence; then every key again, and
// the table's load.
func checkSlotTable(t *testing.T, c scratchCall, rows []Row) {
	t.Helper()
	s := takeScratch(len(rows))
	defer s.release()
	ref := map[int64]int32{}
	for i, row := range rows {
		pr, ok := row.(Pair)
		if !ok {
			continue
		}
		k, ok := pr.K.(int)
		if !ok {
			continue
		}
		want, had := ref[int64(k)]
		if !had {
			want = int32(len(ref))
			ref[int64(k)] = want
		}
		if sl, ok := s.slotOf(int64(k)); sl != want || ok != had {
			t.Fatalf("%v row %d: slotOf(%d) = %d, %v; want %d, %v", c, i, k, sl, ok, want, had)
		}
	}
	for k, want := range ref {
		if sl, ok := s.slotOf(k); sl != want || !ok {
			t.Fatalf("%v: slotOf(%d) = %d, %v after the rows; want %d, true", c, k, sl, ok, want)
		}
	}
	if len(s.ints) != len(ref) || 2*len(s.ints) > len(s.tab) {
		t.Fatalf("%v: %d slots for %d keys in a table of %d", c, len(s.ints), len(ref), len(s.tab))
	}
}

// randomCalls draws a sequence of n calls from rng, small inputs mostly;
// one in four is a wide shuffle, up to 4096 reduce partitions over at most
// 10 rows. Int keys come from every key set, one call in 96 a keysBig one.
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
		c.keySet, c.base = rng.Intn(keysBig), rng.Int63()-1<<62
		if rng.Intn(96) == 0 {
			c.keySet, c.rows = keysBig, maxPooledSlots+1+rng.Intn(512)
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
// Each sequence runs on the pools and is replayed on one owned Scratch.
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
	for set := keysExtreme; set <= keysDense; set++ {
		for agg := 0; agg < aggShapes; agg++ {
			fixed = append(fixed, scratchCall{f64Vals: agg != aggBoxed, agg: agg, rows: 600, keys: 200, keySet: set, base: -1 << 40, parts: 4})
		}
	}
	// Past maxPooledSlots: the map-side combine and the reduce-side merge
	// over every key, then the combine-free merge.
	for _, agg := range []int{aggSum, aggNone} {
		fixed = append(fixed, scratchCall{f64Vals: true, agg: agg, rows: maxPooledSlots + 100, keySet: keysBig, base: -1 << 40, parts: 4})
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
	// The planted panics must really fire, or the sequences below prove
	// nothing about that path.
	rng := rand.New(rand.NewSource(18))
	for _, mapSide := range []bool{true, false} {
		agg := tripwire(SumAggregator(), mapSide, 5)
		rows, _ := scratchCall{f64Vals: true, rows: 100, keys: 10}.build(rng)
		if !panics(func() {
			shuffleOnce(t, rows, agg)
		}) {
			t.Fatalf("tripwire (map side %v) did not fire", mapSide)
		}
	}
	// The pools' run and the owned Scratch's replay go side by side.
	for _, w := range []*Scratch{pooled, new(Scratch)} {
		name := "pools"
		if w != nil {
			name = "owned"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(18))
			for _, c := range fixed {
				c.run(t, rng, w)
			}
			for seed := int64(0); seed < 40; seed++ {
				runCalls(t, seed, 8, w)
			}
		})
	}
}

// runCalls draws n calls from seed and runs them on w's scratch.
func runCalls(t *testing.T, seed int64, n int, w *Scratch) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, c := range randomCalls(rng, n) {
		c.run(t, rng, w)
	}
}

// FuzzKernelScratch explores call sequences; ci.sh runs it for 5 s.
func FuzzKernelScratch(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, uint8(6))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		// The same calls, rows included, on the pools, then replayed on
		// one owned Scratch.
		runCalls(t, seed, 1+int(n%8), pooled)
		runCalls(t, seed, 1+int(n%8), new(Scratch))
	})
}

// TestKernelOutputsIgnoreSalt runs the same calls, every int key set under
// every aggregator shape, under two hash salts: the slot tables' layouts
// differ, the arenas and merged rows may not.
func TestKernelOutputsIgnoreSalt(t *testing.T) {
	defer func(old uint64) { intSalt = old }(intSalt)
	var calls []scratchCall
	for set := keysSpread; set <= keysDense; set++ {
		for agg := 0; agg < aggShapes; agg++ {
			calls = append(calls, scratchCall{f64Vals: agg != aggBoxed, agg: agg, rows: 500, keys: 150, keySet: set, base: 1 << 50})
		}
	}
	run := func(salt uint64) (out []string, layout []int32) {
		intSalt = salt
		for i, c := range calls {
			rows, agg := c.build(rand.New(rand.NewSource(int64(i))))
			cols, _, err := PartitionPairsCol(rows, NewHashPartitioner(4), agg)
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < 4; b++ {
				blk := new(ColBlock)
				cols.BucketInto(b, blk)
				refs := bucketRefs(cols, b)
				out = append(out, fmt.Sprint(blk.AppendPairs(nil)), fmt.Sprint(pooled.MergeReduceRefs(joinRefs(refs, refs), agg)))
			}
		}
		s := takeScratch(0)
		defer s.release()
		for k := range int64(40) {
			s.slotOf(k << 32)
		}
		return out, slices.Clone(s.tab)
	}
	a, layoutA := run(0x9e3779b97f4a7c15)
	b, layoutB := run(0x0123456789abcdef)
	if slices.Equal(layoutA, layoutB) {
		t.Fatalf("both salts laid the table out alike: the comparison proves nothing")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %v bucket %d, %s: salts disagree:\n%.300s\n%.300s", calls[i/8], i%8/2, []string{"arena", "merge"}[i%2], a[i], b[i])
		}
	}
}

// shuffleOnce partitions rows as one map task and merges reduce partition
// 0 of a single-partition shuffle from it and a copy of it: over int keys,
// one pass through a combine kernel and one through a merge kernel. It
// returns the partition's view and the merged rows.
func shuffleOnce(t testing.TB, rows []Row, agg *Aggregator) (*ColBlock, []Row) {
	t.Helper()
	cols, _, err := PartitionPairsCol(rows, NewHashPartitioner(1), agg)
	if err != nil {
		t.Fatal(err)
	}
	blk := new(ColBlock)
	cols.BucketInto(0, blk)
	refs := bucketRefs(cols, 0)
	return blk, pooled.MergeReduceRefs(joinRefs(refs, refs), agg)
}

// TestKernelOutputsDoNotAliasScratch: what call 1 emitted — the arena and
// the merged rows — still equals a deep snapshot after call 2 rewrote the
// same scratch with other keys and values of the same shape.
func TestKernelOutputsDoNotAliasScratch(t *testing.T) {
	for _, agg := range []int{aggSum, aggBoxed} {
		rng := rand.New(rand.NewSource(7))
		c := scratchCall{f64Vals: true, agg: agg, rows: 500, keys: 120}
		rows1, a := c.build(rng)
		blk, merged := shuffleOnce(t, rows1, a)
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
			s.slotOf(int64(i))
			s.anySlots[k] = int32(i)
			s.anys = append(s.anys, &k)
			s.f64s = append(s.f64s, 1)
			s.buckets = append(s.buckets, 1)
		}
		sortedSlots(s, s.ints)
		return s
	}

	s := fill(maxPooledSlots)
	s.release()
	if i := slices.IndexFunc(s.tab, func(e int32) bool { return e != 0 }); i >= 0 || len(s.anySlots) != 0 {
		t.Fatalf("release left int-key table entry %d (of %d) or %d boxed-key slots", i, len(s.tab), len(s.anySlots))
	}
	if len(s.ints)+len(s.buckets)+len(s.f64s)+len(s.anys)+len(s.idx) != 0 {
		t.Fatalf("release left a non-empty slot array: %+v", s)
	}
	if cap(s.ints) < maxPooledSlots || cap(s.anys) < maxPooledSlots {
		t.Fatalf("release gave up the arrays' capacity: %d, %d", cap(s.ints), cap(s.anys))
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
	if len(fat.ints) != maxPooledSlots+1 {
		t.Fatalf("an oversized scratch was emptied (%d slots left); it should be dropped as it is", len(fat.ints))
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
	s.layout(new(ColBuckets), maxPooledSlots, []int32{7, 3, 7, maxPooledSlots - 1})
	s.release()
	if len(s.touched) != 0 || slices.ContainsFunc(s.cursor, func(n int32) bool { return n != 0 }) {
		t.Fatalf("release left touched buckets %v or a non-zero cursor entry", s.touched)
	}
	if got := takeScratch(0); got != s {
		t.Fatalf("a scratch with a %d-entry cursor was not pooled", maxPooledSlots)
	}
	wide := takeScratch(0)
	wide.layout(new(ColBuckets), 1<<20, []int32{5, 1<<20 - 1})
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
		blk, merged := shuffleOnce(t, rows, agg)
		jobs[w] = job{rows, agg, fmt.Sprint(blk.AppendPairs(nil)), fmt.Sprint(merged)}
	}
	var wg sync.WaitGroup
	for w := range jobs {
		wg.Add(1)
		go func(w int, j job) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cols, _, err := PartitionPairsCol(j.rows, NewHashPartitioner(1), j.agg)
				if err != nil {
					t.Errorf("worker %d: partition: %v", w, err)
					return
				}
				var blk ColBlock
				cols.BucketInto(0, &blk)
				refs := bucketRefs(cols, 0)
				merged := pooled.MergeReduceRefs(joinRefs(refs, refs), j.agg)
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

// drainPools empties every scratchPools list and returns what each held,
// in the order Get gave it.
func drainPools() (held [len(scratchPools)][]*kernelScratch) {
	for c := range scratchPools {
		for s := scratchPools[c].Get(); s != nil; s = scratchPools[c].Get() {
			held[c] = append(held[c], s)
		}
	}
	return held
}

// refillPools puts back what drainPools took, each list in its old order.
func refillPools(held [len(scratchPools)][]*kernelScratch) {
	for c, ss := range held {
		for i := len(ss) - 1; i >= 0; i-- {
			scratchPools[c].Put(ss[i])
		}
	}
}

// arenaString renders an arena's kind and every bucket's pairs.
func arenaString(cols *ColBuckets) string {
	var out [][]Pair
	for _, b := range bucketViews(cols) {
		out = append(out, b.AppendPairs(nil))
	}
	return fmt.Sprint(cols.kind, out)
}

// TestOwnedScratchBypassesPools: every engine-called kernel — the F64 and
// the boxed combine, the scatter with unboxed and with boxed values, the
// boxed tier, the typed fold, the merges with and without an aggregator,
// the mixed-kind fallback, the typed merge — called warm on an owned
// Scratch neither takes from nor returns to the shared pools (a misrouted
// take or release would leave a scratch in the emptied pools), and emits
// exactly what the same call on the pools emits. A nested take of a class
// the Scratch holds goes to the pools instead of over the owned one.
func TestOwnedScratchBypassesPools(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	p := NewHashPartitioner(8)
	sum := SumAggregator()
	boxedAgg := ReduceAggregator(func(a, b any) any { return fmt.Sprint(a, "|", b) })
	rows := func(n, keys int, strKeys, f64 bool) []Row {
		rs, _ := scratchCall{strKeys: strKeys, f64Vals: f64, rows: n, keys: keys}.build(rng)
		return rs
	}
	// refs are the reduce blocks of bucket 0 over three map tasks.
	refs := func(in []Row, agg *Aggregator) Refs {
		var out Refs
		for m := 0; m < 3; m++ {
			cols, _, err := PartitionPairsCol(in[m*len(in)/3:(m+1)*len(in)/3], NewHashPartitioner(1), agg)
			if err != nil {
				t.Fatal(err)
			}
			out = joinRefs(out, bucketRefs(cols, 0))
		}
		return out
	}
	partition := func(in []Row, agg *Aggregator) func(*Scratch) string {
		return func(w *Scratch) string {
			cols, _, err := partitionOn(w, in, p, agg)
			if err != nil {
				t.Fatal(err)
			}
			return arenaString(cols)
		}
	}
	merge := func(blks Refs, agg *Aggregator) func(*Scratch) string {
		return func(w *Scratch) string { return fmt.Sprint(w.MergeReduceRefs(blks, agg)) }
	}
	f64Rows, anyRows := rows(3000, 700, false, true), rows(3000, 700, false, false)
	f64Refs, anyRefs := refs(f64Rows, sum), refs(anyRows, boxedAgg)
	// int64 keys take the boxed tier and order with int ones (CompareKeys).
	wide := make([]Row, 300)
	for i, r := range f64Rows[:300] {
		wide[i] = Pair{K: int64(r.(Pair).K.(int)), V: r.(Pair).V}
	}
	mixed := joinRefs(refs(wide, sum), f64Refs)
	typed := &ColBlock{Kind: ColIntF64}
	for _, r := range f64Rows {
		typed.Int = append(typed.Int, int64(r.(Pair).K.(int)))
		typed.F64 = append(typed.F64, r.(Pair).V.(float64))
	}
	calls := []struct {
		name string
		run  func(*Scratch) string
	}{
		{"F64 combine", partition(f64Rows, sum)},
		{"boxed combine", partition(anyRows, boxedAgg)},
		{"scatter", partition(f64Rows, nil)},
		{"scatter of boxed values", partition(f64Rows, GroupAggregator())},
		{"boxed tier", partition(rows(800, 90, true, true), sum)},
		{"typed fold", func(w *Scratch) string {
			var cols ColBuckets
			if err := w.PartitionTypedCol(typed, p, sum, &cols); err != nil {
				t.Fatal(err)
			}
			return arenaString(&cols)
		}},
		{"F64 merge", merge(f64Refs, sum)},
		{"boxed merge", merge(anyRefs, boxedAgg)},
		{"merge without an aggregator", merge(f64Refs, nil)},
		{"mixed-kind merge", merge(mixed, sum)},
		{"typed merge", func(w *Scratch) string {
			var dst ColBlock
			if !w.MergeTypedRefs(f64Refs, sum, &dst) {
				t.Fatal("MergeTypedRefs declined ColIntF64 blocks")
			}
			return fmt.Sprint(dst.Rows())
		}},
	}

	held := drainPools()
	defer refillPools(held)
	w := new(Scratch)
	owned := make([]string, len(calls))
	for round := 0; round < 3; round++ { // the first round warms w up
		for i, c := range calls {
			owned[i] = c.run(w)
			for cl := range scratchPools {
				if s := scratchPools[cl].Get(); s != nil {
					t.Fatalf("round %d: %s on an owned Scratch left a class-%d scratch in the pools", round, c.name, cl)
				}
			}
		}
	}
	for i, c := range calls {
		if got := c.run(pooled); got != owned[i] {
			t.Fatalf("%s: the owned Scratch emits\n%.300s\nthe pools\n%.300s", c.name, owned[i], got)
		}
	}

	drainPools()
	s1 := w.take(0)
	s2 := w.take(0) // nested: w's own is out, so from the pools
	if s1 == s2 || s1 == nil || s2 == nil {
		t.Fatalf("two takes of one class gave %p and %p", s1, s2)
	}
	w.release(s2)
	w.release(s1)
	if w.own[0] != s2 {
		t.Fatalf("the scratch released first did not become w's own")
	}
	if got := scratchPools[0].Get(); got != s1 {
		t.Fatalf("the scratch released into a taken slot went to %p, not the pools", got)
	}
}

// TestWarmKernelsAllocateOnlyTheirOutput is the steady-state allocation
// guard, counts only: once the pooled scratch has grown to a task's size, a
// combine or partition allocates its arena, a row merge its output rows,
// and a typed merge into a reused block or a sizing pass nothing. Each row pins the exact count at two sizes — distinct
// keys for the map side, blocks for the reduce side — so the count neither
// creeps up nor grows with the keys or the block count.
func TestWarmKernelsAllocateOnlyTheirOutput(t *testing.T) {
	p := NewHashPartitioner(8)
	sum := SumAggregator()
	// Int keys are spread to >= 256 (smaller ints box for free).
	intRows := func(rows, keys int) []Row {
		out := make([]Row, rows)
		for i := range out {
			out[i] = Pair{K: 1000 + (i%keys)*7919, V: float64(i)}
		}
		return out
	}
	// arena partitions rows over nparts buckets, failing if it falls back
	// to the boxed tier.
	arena := func(t *testing.T, rows []Row, nparts int, agg *Aggregator) *ColBuckets {
		cols, boxed, err := PartitionPairsCol(rows, NewHashPartitioner(nparts), agg)
		if err != nil || boxed != nil {
			t.Fatalf("%d rows fell back to the boxed tier: %v", len(rows), err)
		}
		return cols
	}
	// partition writes into one reused header, as the engine's map tasks
	// do: the arena's allocations are its bucket table and segments.
	partition := func(rows func(int, int) []Row, agg *Aggregator, kind ColKind) func(*testing.T, int) func() {
		return func(t *testing.T, keys int) func() {
			in := rows(2*keys, keys)
			var cols ColBuckets
			return func() {
				if err := pooled.PartitionPairsInto(in, p, agg, &cols); err != nil || cols.kind != kind {
					t.Fatalf("partition of %d rows: %v, %v", len(in), cols.kind, err)
				}
			}
		}
	}
	// mergeRefs splits 512 keys, each occurring twice, over the given
	// number of map tasks, each writing one bucket: the refs a reduce task
	// reads.
	const keys = 512
	mergeRefs := func(t *testing.T, rows func(int, int) []Row, agg *Aggregator, blocks int) Refs {
		in := rows(2*keys, keys)
		var refs Refs
		for m := 0; m < blocks; m++ {
			refs = joinRefs(refs, bucketRefs(arena(t, in[m*len(in)/blocks:(m+1)*len(in)/blocks], 1, agg), 0))
		}
		return refs
	}
	merge := func(rows func(int, int) []Row, agg *Aggregator, want int) func(*testing.T, int) func() {
		return func(t *testing.T, blocks int) func() {
			refs := mergeRefs(t, rows, agg, blocks)
			return func() {
				if out := pooled.MergeReduceRefs(refs, agg); len(out) != want {
					t.Fatalf("merge of %d blocks: %d rows, want %d", blocks, len(out), want)
				}
			}
		}
	}
	// typedMerge merges the same refs into one reused block.
	typedMerge := func(t *testing.T, blocks int) func() {
		refs := mergeRefs(t, intRows, sum, blocks)
		var dst ColBlock
		return func() {
			if !pooled.MergeTypedRefs(refs, sum, &dst) || len(dst.Int) != keys {
				t.Fatalf("typed merge of %d blocks: %d keys, want %d", blocks, len(dst.Int), keys)
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
		{"int-key combine", [2]int{100, 10000}, partition(intRows, sum, ColIntF64), 3},
		{"aggregator-free partition", [2]int{100, 5000}, partition(intRows, nil, ColIntF64), 3},
		// One []Row and the boxes of each emitted row (the Pair, its key,
		// its value); the blocks are read in place, through their refs.
		{"int-key merge", [2]int{16, 256}, merge(intRows, sum, keys), 1537},
		// The same fold into a reused block: nothing at all.
		{"typed merge", [2]int{16, 256}, typedMerge, 0},
		// The same for every row: the keys, values and sort permutation
		// are concatenated in the scratch (row 0's value, 0.0, boxes for
		// free).
		{"no-aggregator merge", [2]int{16, 256}, merge(intRows, nil, 2*keys), 3072},
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
