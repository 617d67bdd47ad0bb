// arena.go implements the columnar zero-copy shuffle layout (Sparkle-style),
// the fast tier of the two-tier shuffle, for int keys: instead of per-pair
// boxed rows, a map task writes its shuffle output into one arena of
// append-only typed segments — []int64 keys, []float64 for unboxed F64
// aggregator state, []any where values must stay boxed — partitioned
// bucket-major so the reduce side slices its view out of the arena without
// copying a single pair. The reduce kernels take the blocks as Refs — per
// block its map task and position, the arenas once per map task — and
// slice the segments in place.
//
// The contract mirrors the boxed tier (split.go) exactly: same per-bucket
// order (input order without combine, first-occurrence key order with
// combine), the same per-key fold order, and sorted output keys on the
// reduce side, so the engine's traces are byte-identical whichever
// representation carried the pairs. Every other key type, and any
// heterogeneous input, takes the boxed tier wholesale, whose buckets the
// arena then carries as they are (ColNone); the boxed tier is the
// reference semantics, pinned by the engine-vs-oracle fuzz.
//
// Kernel scratch: the shuffle kernels keep their working set — the int
// key→slot table (open addressing over slot numbers, hashed with a
// per-process salt), the per-slot arrays, the sort index, the map side's
// per-bucket cursor — in one reused kernelScratch instead of rebuilding it
// per call, so what a kernel allocates is what it emits: the arena's
// segments and bucket table, whose size follows its pairs and not the
// reduce count, or the merged []Row. The arena's header is the caller's
// (PartitionPairsInto, PartitionTypedCol). Slots are numbered in
// first-occurrence order and emitted through it or through a sort by key,
// so no output depends on the table's layout or salt. A deferred release
// clears the table, the coGroup map, the pointer-bearing arrays and the
// touched cursor entries before the scratch is reused (nothing of the last
// task stays reachable or leaks into the next call) and drops a scratch
// grown past maxPooledSlots; nothing emitted aliases it. The engine's compute
// workers each own a Scratch, one kernelScratch per size class, and call
// the kernels as its methods; every other caller (a nil *Scratch, the
// package-level kernels, the kernels inside a Compute) takes from the
// shared pools. See kernelScratch and Scratch.
//
// Ownership: a ColBuckets arena belongs to one (shuffle, map task); the
// shuffle manager holds it until the generation retires, then drops every
// reference at once — whole-arena frees instead of per-pair garbage. The
// genlife lint rule enforces the reader-side contract: a ColBlock view or
// Refs are valid only within their shuffle generation and must be
// deep-copied before being retained anywhere heap-lived.
package rdd

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"

	"chopper/internal/freelist"
)

// ColKind identifies the typed layout of a columnar block or arena.
type ColKind uint8

const (
	// ColNone marks a block without typed columns: a boxed []Pair bucket
	// of the boxed tier (keys other than int, or heterogeneous rows), or a
	// bucket of the segment-less arena an empty map task writes. The other
	// kinds are fully columnar.
	ColNone ColKind = iota
	ColIntF64
	ColIntAny
	// ColF64 is a column of float64 scalars in F64, no keys: what MapFloat
	// produces for SumFloat. It never enters a shuffle.
	ColF64
	// ColIntGroupAnyF64 holds a cogroup's groups, what
	// JoinFlatMapFloatPairs' cogroup produces: one int key per group in
	// Int, ascending, and each group's left values as a run of Any and its
	// float64 right values as a run of F64. Offs[2g] and Offs[2g+1] end
	// group g's runs; each run starts where the group before it ended. It
	// never enters a shuffle.
	ColIntGroupAnyF64
	// ColIntAnyF64 holds a join's matches, what JoinFlatMapFloatPairs' join
	// produces: per match an int key in Int, a left value in Any and a
	// float64 right value in F64. It never enters a shuffle.
	ColIntAnyF64
)

// ColBlock is a zero-copy view of one (map task, reduce partition) shuffle
// block. For columnar kinds the slices alias the map task's arena: valid
// only within the shuffle generation, never to be mutated or retained
// without a deep copy. ColNone blocks carry boxed pairs instead.
type ColBlock struct {
	Kind ColKind
	// Int holds int keys (ColIntF64, ColIntAny), one per pair.
	Int []int64
	// Offs ends a ColIntGroupAnyF64 block's value runs, two per group.
	Offs []int32
	// F64 holds unboxed float64 values (ColIntF64, ColF64).
	F64 []float64
	// Any holds boxed values (ColIntAny).
	Any []any
	// Pairs holds the boxed fallback rows (ColNone).
	Pairs []Pair
}

// Len reports the number of pairs in the block.
func (c *ColBlock) Len() int {
	switch c.Kind {
	case ColIntF64, ColIntAny, ColIntGroupAnyF64, ColIntAnyF64:
		return len(c.Int)
	case ColF64:
		return len(c.F64)
	default:
		return len(c.Pairs)
	}
}

// AppendPairs materializes the block's pairs onto dst, boxing each row.
// This is the per-pair copy the columnar layout exists to avoid; it backs
// the ColNone/mixed-kind fallback into the boxed merge.
func (c *ColBlock) AppendPairs(dst []Pair) []Pair {
	switch c.Kind {
	case ColIntF64:
		for i, k := range c.Int {
			dst = append(dst, Pair{K: int(k), V: c.F64[i]})
		}
	case ColIntAny:
		for i, k := range c.Int {
			dst = append(dst, Pair{K: int(k), V: c.Any[i]})
		}
	default:
		dst = append(dst, c.Pairs...)
	}
	return dst
}

// ColBuckets is one map task's shuffle arena: the pairs of its non-empty
// reduce buckets in typed segments, bucket-major, or, for a map task the
// boxed tier split (ColNone), its boxed buckets as they are. It records
// the non-empty buckets only — their ids ascending and where each starts —
// so it costs its pairs, whatever the reduce count: the bucket at position
// i, NonEmpty()[i], owns slot range [starts[i], starts[i+1]), and every
// bucket not listed is empty. Readers that walk the arena address buckets
// by position (BlockInto, BlockLogicalBytes); the by-id accessors
// (BucketInto, BucketLen, LogicalBytes) binary-search the ids.
//
// The header is 112 bytes on 64-bit targets: the shuffle manager keeps one
// per map task until the shuffle retires, so every word counts once per
// task.
type ColBuckets struct {
	// index holds the k non-empty buckets' ids, ascending, then where each
	// starts, the total closing the starts: 2k+1 int32 in one allocation.
	// It is nil in the segment-less arena of a map task without rows.
	index []int32
	ints  []int64
	f64   []float64
	anys  []any
	boxed *[][]Pair // by reduce bucket (ColNone)
	// buckets is the reduce-partition count, packed beside the kind.
	buckets int32
	kind    ColKind
}

// NumBuckets reports the reduce-partition count the arena was built for.
func (a *ColBuckets) NumBuckets() int { return int(a.buckets) }

// Len reports the total number of pairs in the arena.
func (a *ColBuckets) Len() int {
	if a.index == nil {
		return 0
	}
	return int(a.index[len(a.index)-1])
}

// NonEmpty reports the ids of the buckets holding at least one pair,
// ascending: entry i is the bucket at position i. The slice is the arena's
// own (capacity-clamped), to be read and never written.
func (a *ColBuckets) NonEmpty() []int32 {
	k := len(a.index) / 2
	return a.index[:k:k]
}

// span returns the slot range of the bucket at position i.
func (a *ColBuckets) span(i int) (lo, hi int) {
	s := a.index[len(a.index)/2+i:]
	return int(s[0]), int(s[1])
}

// position finds bucket b among the non-empty ones.
func (a *ColBuckets) position(b int) (int, bool) {
	return slices.BinarySearch(a.NonEmpty(), int32(b))
}

// boxedBuckets returns the boxed tier's buckets a ColNone arena carries,
// nil for a columnar or segment-less one.
func (a *ColBuckets) boxedBuckets() [][]Pair {
	if a.boxed == nil {
		return nil
	}
	return *a.boxed
}

// boxedBucket returns the boxed pairs of the bucket at position i
// (ColNone).
func (a *ColBuckets) boxedBucket(i int) []Pair {
	return (*a.boxed)[a.index[i]]
}

// BucketLen reports the number of pairs in bucket b.
func (a *ColBuckets) BucketLen(b int) int {
	i, ok := a.position(b)
	if !ok {
		return 0
	}
	lo, hi := a.span(i)
	return hi - lo
}

// BucketInto writes the zero-copy view of reduce bucket b into dst in
// place (an empty view of the arena's kind when b holds nothing). The view
// aliases the arena (three-index slices, so appends cannot bleed across
// buckets) and is valid only while the owning shuffle generation is live.
func (a *ColBuckets) BucketInto(b int, dst *ColBlock) {
	if i, ok := a.position(b); ok {
		a.BlockInto(i, dst)
		return
	}
	*dst = ColBlock{Kind: a.kind}
}

// BlockInto writes the view of the bucket at position i — bucket
// NonEmpty()[i] — into dst, fully overwriting it.
func (a *ColBuckets) BlockInto(i int, dst *ColBlock) {
	*dst = ColBlock{Kind: a.kind}
	lo, hi := a.span(i)
	switch a.kind {
	case ColIntF64:
		dst.Int = a.ints[lo:hi:hi]
		dst.F64 = a.f64[lo:hi:hi]
	case ColIntAny:
		dst.Int = a.ints[lo:hi:hi]
		dst.Any = a.anys[lo:hi:hi]
	default:
		dst.Pairs = a.boxedBucket(i)
	}
}

// BlockRef names one non-empty block of a shuffle: the map task whose
// arena holds it (an index into its Refs' Arenas) and the block's position
// in that arena. It is 8 bytes and holds no pointer: the shuffle's reduce
// index keeps one per block that has a pair, and the arenas once per map
// task.
type BlockRef struct {
	Map, Pos int32
}

// Refs is a list of blocks by reference, what a reduce merge reads in
// place, slicing the arenas' segments between each block's starts, with no
// ColBlock header per block: shuffle.ReduceView.Refs hands a reduce
// partition's out, over its shuffle's arenas. Refs alias the arenas, so
// they are valid only while the owning shuffle generation is live (see
// ColBlock).
type Refs struct {
	// Arenas are the map tasks' arenas, by map task.
	Arenas []*ColBuckets
	// Blocks are the referenced blocks, in merge order.
	Blocks []BlockRef
}

// block returns block i's arena and slot range.
func (r Refs) block(i int) (a *ColBuckets, lo, hi int) {
	b := r.Blocks[i]
	a = r.Arenas[b.Map]
	lo, hi = a.span(int(b.Pos))
	return a, lo, hi
}

// Into writes block i's view into dst, fully overwriting it: its arena's
// BlockInto at its position.
func (r Refs) Into(i int, dst *ColBlock) {
	b := r.Blocks[i]
	r.Arenas[b.Map].BlockInto(int(b.Pos), dst)
}

// LogicalBytes is LogicalPairsBytes for bucket b: the same per-pair sizes
// (PairBytes) scaled and summed in the same pair order, term for term, so
// the simulated shuffle volumes are byte-identical to the boxed layout
// (float addition is not associative; the loop order matters).
func (a *ColBuckets) LogicalBytes(b int, scale float64) float64 {
	if i, ok := a.position(b); ok {
		return a.BlockLogicalBytes(i, scale)
	}
	return 0
}

// BlockLogicalBytes is LogicalBytes for the bucket at position i.
func (a *ColBuckets) BlockLogicalBytes(i int, scale float64) float64 {
	lo, hi := a.span(i)
	total := 0.0
	switch a.kind {
	case ColIntF64:
		// Pair of int key and float64 value: 8 + 8 + 8 bytes, scaling.
		for i := lo; i < hi; i++ {
			total += 24 * scale
		}
	case ColIntAny:
		for i := lo; i < hi; i++ {
			bb := float64(RowBytes(a.anys[i]) + 16)
			if rowScalesWithInput(a.anys[i]) {
				bb *= scale
			}
			total += bb
		}
	default:
		return LogicalPairsBytes(a.boxedBucket(i), scale)
	}
	return total
}

// boxedArena writes to a the arena of kind ColNone that carries the
// buckets the boxed tier split a map task into, so every map output is an
// arena whichever tier wrote it: the view of a non-empty bucket b is
// buckets[b] itself.
func boxedArena(a *ColBuckets, buckets [][]Pair) {
	k := 0
	for _, pairs := range buckets {
		if len(pairs) > 0 {
			k++
		}
	}
	t := make([]int32, 2*k+1)
	i := 0
	for b, pairs := range buckets {
		if len(pairs) > 0 {
			t[i], t[k+i+1] = int32(b), t[k+i]+int32(len(pairs))
			i++
		}
	}
	*a = ColBuckets{buckets: int32(len(buckets)), index: t, boxed: &buckets}
}

// kernelScratch is the working set of one combine, merge or cogroup kernel
// call: the int key→slot table (slotOf) or, for coGroup, a key→slot map,
// the per-slot arrays and the sort index.
// Every kernel takes it (Scratch.take, or takeScratch for the pools) and
// hands it back through a deferred release, so the bail-outs, the non-pair
// error and a panicking user aggregator all return it. Nothing a kernel
// emits aliases it: the emitters copy the slots into fresh arena segments,
// the merges and coGroup into a fresh []Row.
type kernelScratch struct {
	// tab is slotOf's open-addressing table: a power-of-two array of slot
	// + 1 (0 is empty), at most half full, probed linearly from the key's
	// salted hash. The key of slot sl is ints[sl].
	tab      []int32
	anySlots map[any]int32 // key → group slot (coGroup)
	ints     []int64       // slot → int key
	buckets  []int32       // slot (row, when scattering) → reduce bucket (map side); record → group slot (coGroup)
	f64s     []float64     // slot → unboxed combiner
	anys     []any         // slot → boxed combiner; group slot → key (coGroup)
	// idx holds the slots in key order (reduce side, coGroup); coGroup
	// first counts its values per (group, side) in it.
	idx []int32
	// cursor is the map side's per-bucket counter and write cursor, one
	// entry per reduce bucket, all zero between calls: layout touches only
	// the entries of the buckets it is handed, listed in touched, and
	// release zeroes exactly those.
	cursor  []int32
	touched []int32
	class   int // the size class it serves: its scratchPools entry or Scratch slot
}

// maxPooledSlots bounds the scratch a pool or a Scratch keeps, counting
// slots, rows and cursor entries alike: a kept table, map or array keeps
// its memory, so a scratch one fat task (or one very wide shuffle) grew
// past this is dropped instead of being held for every later call. The
// slot table holds at most four entries per slot, so the slot count bounds
// it too.
const maxPooledSlots = 1 << 14

// scratchPools serve the kernel calls that no compute worker owns: the
// package-level kernels (LocalRunner, the fuzz oracle, the layer probes),
// the kernels inside a Compute (coGroup, the typed group-by), and a nil
// *Scratch. They are free lists, not sync.Pools, so a call's allocations
// do not depend on GC timing; and one per size class of call (class c: at
// most 64·2^c pairs, the last one larger) because a kept table keeps its
// peak capacity and clearing costs all of it: a small call must not pay
// for a large one.
var scratchPools [10]freelist.List[*kernelScratch]

// sizeClass is the scratchPools entry serving a call over pairs.
func sizeClass(pairs int) int {
	c := 0
	for limit := 64; pairs > limit && c < len(scratchPools)-1; limit *= 2 {
		c++
	}
	return c
}

// takeScratch returns a pooled scratch of the size class of a call over
// pairs.
func takeScratch(pairs int) *kernelScratch {
	c := sizeClass(pairs)
	if s := scratchPools[c].Get(); s != nil {
		return s
	}
	return &kernelScratch{anySlots: map[any]int32{}, class: c}
}

// release empties the scratch and pools it, or drops it when it grew past
// maxPooledSlots.
func (s *kernelScratch) release() {
	if s.reset() {
		scratchPools[s.class].Put(s)
	}
}

// reset empties the scratch for its next call and reports whether it is
// worth keeping: false, and nothing cleared, when it grew past
// maxPooledSlots. The slot table, the coGroup map and the used prefixes of
// the pointer-bearing arrays are cleared — a kept scratch must not keep the
// last task's keys and combiners alive, nor leak its slots into the next
// call — so every element within capacity stays zero; so does every cursor
// entry, whichever way the call left.
func (s *kernelScratch) reset() bool {
	if max(len(s.ints), len(s.buckets), len(s.cursor)) > maxPooledSlots {
		return false
	}
	for _, b := range s.touched {
		s.cursor[b] = 0
	}
	if len(s.ints) > 0 { // the table holds entries only for slots of ints
		clear(s.tab)
	}
	clear(s.anySlots)
	clear(s.anys)
	s.ints, s.buckets = s.ints[:0], s.buckets[:0]
	s.f64s, s.anys, s.idx = s.f64s[:0], s.anys[:0], s.idx[:0]
	s.touched = s.touched[:0]
	return true
}

// Scratch is one compute worker's own kernel scratch, a kernelScratch per
// size class: the kernels called as its methods (the merges, the
// partitioners) take and return it without the pools' lock. Only the
// goroutine holding a Scratch may call its methods; the engine keeps one
// in each worker's pipeline scratch. A nil *Scratch takes from
// scratchPools; the package-level kernels are calls on one.
type Scratch struct {
	own [len(scratchPools)]*kernelScratch
}

// take returns a scratch of the size class of a call over pairs: w's own
// for that class when it holds one, else a pooled one.
func (w *Scratch) take(pairs int) *kernelScratch {
	if w != nil {
		c := sizeClass(pairs)
		if s := w.own[c]; s != nil {
			w.own[c] = nil
			return s
		}
	}
	return takeScratch(pairs)
}

// release empties s and keeps it as w's own for its class. When w is nil,
// or already holds one of that class again (a nested take), s goes to the
// pools instead: nothing is dropped but what grew past maxPooledSlots, and
// nothing w owns is reachable from another goroutine.
func (w *Scratch) release(s *kernelScratch) {
	if w == nil || w.own[s.class] != nil {
		s.release()
		return
	}
	if s.reset() {
		w.own[s.class] = s
	}
}

// intSalt seeds slotOf's hash: random per process, so no chosen key set
// can force long probe chains. Tests set it to show outputs do not depend
// on it; only an empty table may see it change.
var intSalt = maphash.Comparable(maphash.MakeSeed(), 0)

// hashInt mixes k with intSalt through MurmurHash3's 64-bit finalizer, so
// every key bit reaches the low bits the table indexes by.
func hashInt(k int64) uint64 {
	h := uint64(k) ^ intSalt
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// slotOf returns k's slot and true, or gives k, new to the scratch, the
// next slot — appending it to ints, so slots run in first-occurrence order
// — and returns that and false.
func (s *kernelScratch) slotOf(k int64) (int32, bool) {
	if 2*(len(s.ints)+1) > len(s.tab) {
		s.growTab()
	}
	mask := uint64(len(s.tab) - 1)
	for h := hashInt(k) & mask; ; h = (h + 1) & mask {
		e := s.tab[h]
		if e == 0 {
			sl := int32(len(s.ints))
			s.tab[h] = sl + 1
			s.ints = append(s.ints, k)
			return sl, false
		}
		if s.ints[e-1] == k {
			return e - 1, true
		}
	}
}

// growTab replaces the table by one at least twice the size, with room for
// one more slot at most half full, and re-enters every slot.
func (s *kernelScratch) growTab() {
	n := max(64, 2*len(s.tab))
	for n < 2*(len(s.ints)+1) {
		n *= 2
	}
	tab := make([]int32, n)
	mask := uint64(n - 1)
	for sl, k := range s.ints {
		h := hashInt(k) & mask
		for tab[h] != 0 {
			h = (h + 1) & mask
		}
		tab[h] = int32(sl) + 1
	}
	s.tab = tab
}

// layout starts a, the arena of n reduce buckets over items whose buckets
// are bucketOf: it counts the items per bucket in the cursor, records the
// non-empty buckets ascending with their starts in the arena's one index
// table, and leaves cursor[b] at bucket b's first slot, so the caller
// places item j at cursor[bucketOf[j]]++ — each bucket in item order.
// It writes only the cursor entries of the buckets it is handed.
func (s *kernelScratch) layout(a *ColBuckets, n int, bucketOf []int32) {
	if len(s.cursor) < n {
		s.cursor = make([]int32, n) // the old one is all zero: nothing to carry over
	}
	cur := s.cursor
	for _, b := range bucketOf {
		if cur[b] == 0 {
			s.touched = append(s.touched, b)
		}
		cur[b]++
	}
	k := len(s.touched)
	t := make([]int32, 2*k+1)
	ids, starts := t[:k:k], t[k:]
	if 16*k < n { // few buckets of many: sort them rather than scan the cursor
		copy(ids, s.touched)
		slices.Sort(ids)
	} else {
		i := 0
		for b, c := range cur[:n] {
			if c != 0 {
				ids[i] = int32(b)
				i++
			}
		}
	}
	pos := int32(0)
	for i, b := range ids {
		starts[i] = pos
		pos, cur[b] = pos+cur[b], pos
	}
	starts[k] = pos
	*a = ColBuckets{buckets: int32(n), index: t}
}

// sortedSlots returns the scratch's sort index holding the slots of keys
// ordered by key. Keys are distinct, so the unstable sort is deterministic,
// mirroring the boxed path.
func sortedSlots[K cmp.Ordered](s *kernelScratch, keys []K) []int32 {
	for i := range keys {
		s.idx = append(s.idx, int32(i))
	}
	slices.SortFunc(s.idx, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	return s.idx
}

// aggAllF64 reports whether the aggregator carries the full set of unboxed
// hooks the columnar F64 value segment needs on both shuffle sides.
func aggAllF64(agg *Aggregator) bool {
	return agg.CreateF64 != nil && agg.MergeValueF64 != nil && agg.MergeCombinersF64 != nil
}

// PartitionPairsCol is Scratch.PartitionPairsInto on the pools' scratch
// onto a fresh arena header, returned with the boxed tier's buckets when it
// split the rows (nil exactly when the arena is columnar). Without an error
// the arena is never nil.
func PartitionPairsCol(rows []Row, p Partitioner, agg *Aggregator) (*ColBuckets, [][]Pair, error) {
	cols := new(ColBuckets)
	if err := (*Scratch)(nil).PartitionPairsInto(rows, p, agg, cols); err != nil {
		return nil, nil, err
	}
	return cols, cols.boxedBuckets(), nil
}

// PartitionPairsInto is the map side of a shuffle: it routes one map
// partition's pairs into dst, a columnar ColBuckets arena, when the rows
// are int-keyed pairs (or there are none: an empty arena, no segments,
// nothing allocated), and otherwise splits them with the boxed tier's
// partitionPairs wholesale into the ColNone arena carrying its buckets.
// dst is fully overwritten unless an error is returned. The produced
// buckets are byte-identical to partitionPairs in content and order on
// every path.
func (w *Scratch) PartitionPairsInto(rows []Row, p Partitioner, agg *Aggregator, dst *ColBuckets) error {
	if len(rows) == 0 {
		*dst = ColBuckets{buckets: int32(p.NumPartitions())}
		return nil
	}
	if pr, ok := rows[0].(Pair); ok {
		_, isInt := pr.K.(int)
		_, vF64 := pr.V.(float64)
		switch {
		case isInt && agg != nil && agg.MapSideCombine:
			if ok, err := w.colCombineInt(dst, rows, p, agg, vF64 && aggAllF64(agg)); ok || err != nil {
				return err
			}
		case isInt:
			// Without an aggregator the values may move into an unboxed
			// F64 segment (the reduce side boxes once per row on emission
			// either way). With a reduce-only aggregator the values stay
			// in their existing boxes so the reduce-side fold adds no
			// re-boxing.
			if ok, err := w.colScatterInt(dst, rows, p, agg == nil && vF64); ok || err != nil {
				return err
			}
		}
	}
	boxed, err := partitionPairs(rows, p, agg)
	if err != nil {
		return err
	}
	boxedArena(dst, boxed)
	return nil
}

// colCombineInt is the map-side combine writer for int keys. One global
// key→slot table replaces the per-bucket maps of the boxed path: per-key
// state lives in slot-order arrays, and emission scatters the slots
// bucket-major, preserving per-bucket first-occurrence order (every
// occurrence of a key lands in the same bucket, so the global
// first-occurrence order filtered to one bucket is that bucket's own).
func (w *Scratch) colCombineInt(dst *ColBuckets, rows []Row, p Partitioner, agg *Aggregator, f64 bool) (bool, error) {
	s := w.take(len(rows))
	defer w.release(s)

	if f64 {
		if agg.CreateF64 != nil && agg.MergeValueF64 != nil {
			for _, row := range rows {
				pr, ok := row.(Pair)
				if !ok {
					return false, fmt.Errorf("rdd: shuffling non-pair row %T", row)
				}
				k, ok := pr.K.(int)
				if !ok {
					return false, nil
				}
				v, ok := pr.V.(float64)
				if !ok {
					return false, nil
				}
				s.foldIntF64(int64(k), v, p, agg)
			}
			emitColInt(dst, s, p.NumPartitions(), true)
			return true, nil
		}
		return false, nil
	}

	for _, row := range rows {
		pr, ok := row.(Pair)
		if !ok {
			return false, fmt.Errorf("rdd: shuffling non-pair row %T", row)
		}
		k, ok := pr.K.(int)
		if !ok {
			return false, nil
		}
		if sl, ok := s.slotOf(int64(k)); ok {
			s.anys[sl] = agg.MergeValue(s.anys[sl], pr.V)
		} else {
			s.buckets = append(s.buckets, int32(p.PartitionFor(pr.K)))
			s.anys = append(s.anys, agg.Create(pr.V))
		}
	}
	emitColInt(dst, s, p.NumPartitions(), false)
	return true, nil
}

// foldIntF64 is the F64 map-side combine of one int-keyed value: merged
// into its key's slot by MergeValueF64, or opening the next slot — first
// occurrence order — with its bucket and CreateF64(v).
func (s *kernelScratch) foldIntF64(k int64, v float64, p Partitioner, agg *Aggregator) {
	if sl, ok := s.slotOf(k); ok {
		s.f64s[sl] = agg.MergeValueF64(s.f64s[sl], v)
		return
	}
	s.buckets = append(s.buckets, int32(partitionInt(p, k)))
	s.f64s = append(s.f64s, agg.CreateF64(v))
}

// CombinesF64 reports whether the aggregator combines map-side through all
// three unboxed hooks: the shuffles PartitionTypedCol folds a ColIntF64
// block into without rows.
func (agg *Aggregator) CombinesF64() bool {
	return agg != nil && agg.MapSideCombine && aggAllF64(agg)
}

// PartitionTypedCol is PartitionPairsInto for a partition its RDD's Typed
// compute produced. A ColIntF64 block under an aggregator that CombinesF64
// folds pair by pair into the slot arrays colCombineInt's f64 branch fills
// from the boxed rows — the same keys in the same first-occurrence order,
// the same fold order, each key routed unboxed — so the arena is
// byte-identical to w.PartitionPairsInto(blk.Rows(), p, agg, dst). Any
// other block or aggregator takes exactly that boxed call.
func (w *Scratch) PartitionTypedCol(blk *ColBlock, p Partitioner, agg *Aggregator, dst *ColBuckets) error {
	if blk.Kind != ColIntF64 || !agg.CombinesF64() {
		return w.PartitionPairsInto(blk.Rows(), p, agg, dst)
	}
	if len(blk.Int) == 0 {
		*dst = ColBuckets{buckets: int32(p.NumPartitions())}
		return nil
	}
	s := w.take(len(blk.Int))
	defer w.release(s)
	for i, k := range blk.Int {
		s.foldIntF64(k, blk.F64[i], p, agg)
	}
	emitColInt(dst, s, p.NumPartitions(), true)
	return nil
}

// emitColInt scatters combine slots into a, a bucket-major int-key arena;
// f64 selects the value segment (the slots' f64s, else their anys).
func emitColInt(a *ColBuckets, s *kernelScratch, n int, f64 bool) {
	s.layout(a, n, s.buckets)
	cur, keys := s.cursor, s.ints
	ints := make([]int64, len(keys))
	a.ints = ints
	if f64 {
		a.kind = ColIntF64
		out := make([]float64, len(keys))
		for sl, k := range keys {
			b := s.buckets[sl]
			pos := cur[b]
			cur[b]++
			ints[pos] = k
			out[pos] = s.f64s[sl]
		}
		a.f64 = out
		return
	}
	a.kind = ColIntAny
	out := make([]any, len(keys))
	for sl, k := range keys {
		b := s.buckets[sl]
		pos := cur[b]
		cur[b]++
		ints[pos] = k
		out[pos] = s.anys[sl]
	}
	a.anys = out
}

// colScatterInt is the combine-free arena writer for int keys: one pass
// validates the rows and records each one's bucket (one PartitionFor call
// per row), the second places each row in its bucket of a in input order.
// wantF64 moves all-float64 values into the unboxed segment; otherwise
// values keep their existing boxes in the any segment.
func (w *Scratch) colScatterInt(a *ColBuckets, rows []Row, p Partitioner, wantF64 bool) (bool, error) {
	s := w.take(len(rows))
	defer w.release(s)

	s.buckets = slices.Grow(s.buckets, len(rows))
	allF64 := wantF64
	for _, row := range rows {
		pr, ok := row.(Pair)
		if !ok {
			return false, fmt.Errorf("rdd: shuffling non-pair row %T", row)
		}
		if _, ok := pr.K.(int); !ok {
			return false, nil
		}
		if allF64 {
			if _, ok := pr.V.(float64); !ok {
				allF64 = false
			}
		}
		s.buckets = append(s.buckets, int32(p.PartitionFor(pr.K)))
	}
	s.layout(a, p.NumPartitions(), s.buckets)
	cur := s.cursor
	ints := make([]int64, len(rows))
	a.ints = ints
	if allF64 {
		a.kind = ColIntF64
		f64s := make([]float64, len(rows))
		for i, row := range rows {
			pr := row.(Pair)
			b := s.buckets[i]
			pos := cur[b]
			cur[b]++
			ints[pos] = int64(pr.K.(int))
			f64s[pos] = pr.V.(float64)
		}
		a.f64 = f64s
		return true, nil
	}
	a.kind = ColIntAny
	anys := make([]any, len(rows))
	for i, row := range rows {
		pr := row.(Pair)
		b := s.buckets[i]
		pos := cur[b]
		cur[b]++
		ints[pos] = int64(pr.K.(int))
		anys[pos] = pr.V
	}
	a.anys = anys
	return true, nil
}

// MergeReduceColN merges the n blocks get writes, in order, exactly as
// Scratch.MergeReduceRefs merges refs, on the pools' scratch: the adapter
// for callers that hold views rather than arenas. get(i, dst) must fully
// overwrite dst with block i's view. The engine never calls it.
func MergeReduceColN(n int, get func(int, *ColBlock), agg *Aggregator) []Row {
	return (*Scratch)(nil).MergeReduceRefs(viewRefs(n, get), agg)
}

// viewRefs copies the non-empty views get writes into one slab of
// arenas — view i the one bucket i of n of the i-th — and returns their
// refs, in order. Unlike the refs a shuffle index hands out, these cost a
// few allocations per call.
func viewRefs(n int, get func(int, *ColBlock)) Refs {
	arenas := make([]ColBuckets, n)
	refs := Refs{Arenas: make([]*ColBuckets, n), Blocks: make([]BlockRef, 0, n)}
	index := make([]int32, 3*n) // per arena its one id, then its starts
	var boxed [][]Pair
	var blk ColBlock
	for i := range arenas {
		get(i, &blk)
		l := blk.Len()
		if l == 0 {
			continue
		}
		t := index[3*i : 3*i+3 : 3*i+3]
		t[0], t[2] = int32(i), int32(l)
		a := &arenas[i]
		*a = ColBuckets{kind: blk.Kind, buckets: int32(n), index: t, ints: blk.Int, f64: blk.F64, anys: blk.Any}
		if blk.Kind != ColIntF64 && blk.Kind != ColIntAny {
			if boxed == nil {
				boxed = make([][]Pair, n)
			}
			boxed[i] = blk.Pairs
			a.boxed = &boxed
		}
		refs.Arenas[i] = a
		refs.Blocks = append(refs.Blocks, BlockRef{Map: int32(i)})
	}
	return refs
}

// MergeReduceRefs is the reduce side of a shuffle over zero-copy refs: it
// merges the blocks destined for one reduce partition (one per map task
// that wrote the partition a pair, in map-task order) directly out of the
// arenas, slicing each block's keys and values in place — no block header,
// and no per-pair boxing until the once-per-key (or once-per-row, without
// an aggregator) emission. Blocks of one columnar kind merge in that
// kind's kernel; boxed (ColNone) or mixed blocks materialize into pairs
// through Into and take the boxed reference path, byte-identical by
// construction. The engine hands it a shuffle.ReduceView's Refs.
func (w *Scratch) MergeReduceRefs(refs Refs, agg *Aggregator) []Row {
	kind, total := refsKind(refs)
	if total == 0 {
		return []Row{} // non-nil, like the boxed merge of nothing
	}
	s := w.take(total)
	defer w.release(s)
	switch kind {
	case ColIntF64:
		if out, ok := mergeIntF64(s, refs, agg, total); ok {
			return out
		}
	case ColIntAny:
		return mergeIntAny(s, refs, agg, total)
	}
	return mergeReduceBlocks(materializeRefs(refs), agg)
}

// refsKind reports the kind the blocks share — ColNone when any of them is
// boxed or their kinds differ — and their pair count: the sizing pass, a
// sum over the arenas' starts.
func refsKind(refs Refs) (ColKind, int) {
	kind, total := ColNone, 0
	for i := range refs.Blocks {
		a, lo, hi := refs.block(i)
		total += hi - lo
		if i == 0 {
			kind = a.kind
		} else if a.kind != kind {
			kind = ColNone
		}
	}
	return kind, total
}

// materializeRefs boxes the blocks back into pair blocks through Into — the
// reference fallback for boxed and mixed kinds.
func materializeRefs(refs Refs) [][]Pair {
	out := make([][]Pair, len(refs.Blocks))
	var blk ColBlock
	for i := range refs.Blocks {
		refs.Into(i, &blk)
		out[i] = blk.AppendPairs(make([]Pair, 0, blk.Len()))
	}
	return out
}

// mergeIntF64 is the merge kernel of ColIntF64 blocks. Without an
// aggregator it concatenates them, in block order, into the scratch's key
// and value arrays and stable-sorts by key through the scratch's index
// permutation (the typed columns make comparisons and swaps cheap); with
// one it folds them per key through the aggregator's F64 hooks
// (foldRefsF64), and reports false, touching nothing, when agg lacks them.
// Either way it boxes each emitted row once, keys ascending: the rows are
// all it allocates.
func mergeIntF64(s *kernelScratch, refs Refs, agg *Aggregator, total int) ([]Row, bool) {
	var order []int32
	if agg == nil {
		s.ints, s.f64s = slices.Grow(s.ints, total), slices.Grow(s.f64s, total)
		for i := range refs.Blocks {
			a, lo, hi := refs.block(i)
			s.ints = append(s.ints, a.ints[lo:hi]...)
			s.f64s = append(s.f64s, a.f64[lo:hi]...)
		}
		order = stableKeyOrder(s, s.ints)
	} else {
		if !foldRefsF64(s, refs, agg) {
			return nil, false
		}
		order = sortedSlots(s, s.ints)
	}
	out := make([]Row, len(order))
	for i, j := range order {
		out[i] = Pair{K: int(s.ints[j]), V: s.f64s[j]}
	}
	return out, true
}

// foldRefsF64 folds ColIntF64 blocks into s's slot arrays through agg's
// F64 hooks, mirroring mergeBlocksGeneric: map-task order, per-key fold in
// pair order, first-occurrence key tracking. Per-key state lives in slot
// arrays, so a repeated key costs one table probe and an array store. It
// reports false, folding nothing, when agg lacks the hooks.
func foldRefsF64(s *kernelScratch, refs Refs, agg *Aggregator) bool {
	if agg.MergeCombinersF64 != nil && agg.CreateF64 != nil {
		for b := range refs.Blocks {
			a, lo, hi := refs.block(b)
			vals := a.f64[lo:hi]
			for i, k := range a.ints[lo:hi] {
				v := vals[i]
				switch sl, ok := s.slotOf(k); {
				case ok && agg.MapSideCombine:
					s.f64s[sl] = agg.MergeCombinersF64(s.f64s[sl], v)
				case ok:
					s.f64s[sl] = agg.MergeValueF64(s.f64s[sl], v)
				case agg.MapSideCombine:
					s.f64s = append(s.f64s, v) // already a combiner from the map side
				default:
					s.f64s = append(s.f64s, agg.CreateF64(v))
				}
			}
		}
		return true
	}
	return false
}

// mergeIntAny is the merge kernel of ColIntAny blocks: mergeIntF64 with
// boxed values, folded through the aggregator's boxed hooks (the values
// were boxed at the source, so the fold itself adds no new boxes).
func mergeIntAny(s *kernelScratch, refs Refs, agg *Aggregator, total int) []Row {
	var order []int32
	if agg == nil {
		s.ints, s.anys = slices.Grow(s.ints, total), slices.Grow(s.anys, total)
		for i := range refs.Blocks {
			a, lo, hi := refs.block(i)
			s.ints = append(s.ints, a.ints[lo:hi]...)
			s.anys = append(s.anys, a.anys[lo:hi]...)
		}
		order = stableKeyOrder(s, s.ints)
	} else {
		for b := range refs.Blocks {
			a, lo, hi := refs.block(b)
			vals := a.anys[lo:hi]
			for i, k := range a.ints[lo:hi] {
				v := vals[i]
				switch sl, ok := s.slotOf(k); {
				case ok && agg.MapSideCombine:
					s.anys[sl] = agg.MergeCombiners(s.anys[sl], v)
				case ok:
					s.anys[sl] = agg.MergeValue(s.anys[sl], v)
				case agg.MapSideCombine:
					s.anys = append(s.anys, v) // already a combiner from the map side
				default:
					s.anys = append(s.anys, agg.Create(v))
				}
			}
		}
		order = sortedSlots(s, s.ints)
	}
	out := make([]Row, len(order))
	for i, j := range order {
		out[i] = Pair{K: int(s.ints[j]), V: s.anys[j]}
	}
	return out
}

// stableKeyOrder returns the scratch's sort index holding the stable-by-key
// permutation of keys.
func stableKeyOrder(s *kernelScratch, keys []int64) []int32 {
	s.idx = slices.Grow(s.idx[:0], len(keys))[:len(keys)]
	for i := range s.idx {
		s.idx[i] = int32(i)
	}
	slices.SortStableFunc(s.idx, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	return s.idx
}

// MergeTypedRefs is MergeReduceRefs for a typed consumer of the reduce
// side: when agg CombinesF64 and every block is ColIntF64, it folds the
// blocks as the row merge does (foldRefsF64) and writes the merged pairs
// to dst as one ColIntF64 block, keys ascending — the columns of exactly
// the rows MergeReduceRefs returns — reusing dst's capacity, and reports
// true. Otherwise it leaves dst as it was and reports false: the rows are
// the reduce input. A warm call allocates nothing.
func (w *Scratch) MergeTypedRefs(refs Refs, agg *Aggregator, dst *ColBlock) bool {
	if !agg.CombinesF64() {
		return false
	}
	kind, total := refsKind(refs)
	if kind != ColIntF64 && total > 0 {
		return false
	}
	s := w.take(total)
	defer w.release(s)
	foldRefsF64(s, refs, agg)
	keys, vals := dst.Int[:0], dst.F64[:0]
	for _, sl := range sortedSlots(s, s.ints) {
		keys = append(keys, s.ints[sl])
		vals = append(vals, s.f64s[sl])
	}
	*dst = ColBlock{Kind: ColIntF64, Int: keys, F64: vals}
	return true
}
