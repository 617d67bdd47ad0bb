// arena.go implements the columnar zero-copy shuffle layout (Sparkle-style),
// the fast tier of the two-tier shuffle: instead of per-pair boxed rows, a
// map task writes its shuffle output into one arena of append-only typed
// segments — []int64 for int keys, a shared []byte plus offsets for string
// keys, []float64 for unboxed F64 aggregator state, []any where values
// must stay boxed — partitioned bucket-major so the reduce side slices its
// view out of the arena without copying a single pair.
//
// The contract mirrors the boxed tier (split.go) exactly: same per-bucket
// order (input order without combine, first-occurrence key order with
// combine), the same per-key fold order, and sorted output keys on the
// reduce side, so the engine's traces are byte-identical whichever
// representation carried the pairs. Untyped or heterogeneous inputs fall
// back to the boxed rows wholesale (ColNone); the boxed tier is the
// reference semantics, pinned by the engine-vs-oracle fuzz.
//
// Kernel scratch: the shuffle kernels keep their working set — the
// key→slot map, the per-slot arrays, the sort index, the map side's
// per-bucket cursor — in one pooled kernelScratch instead of rebuilding it
// per call, so what a kernel allocates is what it emits: the arena, whose
// size follows its pairs and not the reduce count, or the merged []Row. A
// deferred release clears the maps, the pointer-bearing arrays and the
// touched cursor entries before pooling (nothing of the last task stays
// reachable or leaks into the next call) and drops a scratch grown past
// maxPooledSlots; nothing emitted aliases it. See kernelScratch.
//
// Ownership: a ColBuckets arena belongs to one (shuffle, map task); the
// shuffle manager holds it until the generation retires, then drops every
// reference at once — whole-arena frees instead of per-pair garbage. The
// genlife lint rule enforces the reader-side contract: a ColBlock view is
// valid only within its shuffle generation and must be deep-copied before
// being retained anywhere heap-lived.
package rdd

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"chopper/internal/freelist"
)

// ColKind identifies the typed layout of a columnar block or arena.
type ColKind uint8

const (
	// ColNone marks a block without typed columns: a boxed []Pair fallback
	// block (untyped keys or heterogeneous rows), or a bucket of the
	// segment-less arena an empty map task writes. The other kinds are
	// fully columnar.
	ColNone ColKind = iota
	ColIntF64
	ColIntAny
	ColStrF64
	ColStrAny
)

// ColBlock is a zero-copy view of one (map task, reduce partition) shuffle
// block. For columnar kinds the slices alias the map task's arena: valid
// only within the shuffle generation, never to be mutated or retained
// without a deep copy. ColNone blocks carry boxed pairs instead.
type ColBlock struct {
	Kind ColKind
	// Int holds int keys (ColIntF64, ColIntAny), one per pair.
	Int []int64
	// Offs/Bytes hold string keys (ColStrF64, ColStrAny): key i occupies
	// Bytes[Offs[i]:Offs[i+1]], so Offs has Len()+1 entries. Bytes is the
	// arena's shared key segment; a block's keys are contiguous in it.
	Offs  []int32
	Bytes []byte
	// F64 holds unboxed float64 values (ColIntF64, ColStrF64).
	F64 []float64
	// Any holds boxed values (ColIntAny, ColStrAny).
	Any []any
	// Pairs holds the boxed fallback rows (ColNone).
	Pairs []Pair
}

// Len reports the number of pairs in the block.
func (c *ColBlock) Len() int {
	switch c.Kind {
	case ColIntF64, ColIntAny:
		return len(c.Int)
	case ColStrF64:
		return len(c.F64)
	case ColStrAny:
		return len(c.Any)
	default:
		return len(c.Pairs)
	}
}

// strKey returns the bytes of string key i (ColStr* kinds).
func (c *ColBlock) strKey(i int) []byte {
	return c.Bytes[c.Offs[i]:c.Offs[i+1]]
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
	case ColStrF64:
		for i := range c.F64 {
			dst = append(dst, Pair{K: string(c.strKey(i)), V: c.F64[i]})
		}
	case ColStrAny:
		for i := range c.Any {
			dst = append(dst, Pair{K: string(c.strKey(i)), V: c.Any[i]})
		}
	default:
		dst = append(dst, c.Pairs...)
	}
	return dst
}

// ColBuckets is one map task's shuffle arena: the pairs of its non-empty
// reduce buckets in typed segments, bucket-major. It records those buckets
// only — their ids ascending and where each starts — so it costs its pairs,
// whatever the reduce count: the bucket at position i, NonEmpty()[i], owns
// slot range [starts[i], starts[i+1]), and every bucket not listed is
// empty. Readers that walk the arena address buckets by position
// (BlockInto, BlockLogicalBytes); the by-id accessors (BucketInto, Bucket,
// BucketLen, LogicalBytes) binary-search the ids.
type ColBuckets struct {
	kind    ColKind
	buckets int // the reduce-partition count
	// ids and starts share one allocation of 2·len(ids)+1 int32: the ids,
	// then the starts with the total closing them. Both are nil in the
	// segment-less arena of a map task without rows.
	ids    []int32
	starts []int32
	ints   []int64
	offs   []int32 // len totalPairs+1 (string kinds)
	bytes  []byte
	f64    []float64
	anys   []any
}

// Kind reports the arena's typed layout.
func (a *ColBuckets) Kind() ColKind { return a.kind }

// NumBuckets reports the reduce-partition count the arena was built for.
func (a *ColBuckets) NumBuckets() int { return a.buckets }

// Len reports the total number of pairs in the arena.
func (a *ColBuckets) Len() int {
	if a.starts == nil {
		return 0
	}
	return int(a.starts[len(a.starts)-1])
}

// NonEmpty reports the ids of the buckets holding at least one pair,
// ascending: entry i is the bucket at position i. The slice is the arena's
// own (capacity-clamped), to be read and never written.
func (a *ColBuckets) NonEmpty() []int32 { return a.ids }

// position finds bucket b among the non-empty ones.
func (a *ColBuckets) position(b int) (int, bool) {
	return slices.BinarySearch(a.ids, int32(b))
}

// BucketLen reports the number of pairs in bucket b.
func (a *ColBuckets) BucketLen(b int) int {
	i, ok := a.position(b)
	if !ok {
		return 0
	}
	return int(a.starts[i+1] - a.starts[i])
}

// Bucket returns the zero-copy view of reduce bucket b. The view aliases
// the arena (three-index slices, so appends cannot bleed across buckets)
// and is valid only while the owning shuffle generation is live.
func (a *ColBuckets) Bucket(b int) ColBlock {
	var blk ColBlock
	a.BucketInto(b, &blk)
	return blk
}

// BucketInto writes bucket b's view into dst in place (an empty view of
// the arena's kind when b holds nothing), sparing the ~150-byte struct
// copy Bucket's by-value return costs.
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
	lo, hi := a.starts[i], a.starts[i+1]
	switch a.kind {
	case ColIntF64:
		dst.Int = a.ints[lo:hi:hi]
		dst.F64 = a.f64[lo:hi:hi]
	case ColIntAny:
		dst.Int = a.ints[lo:hi:hi]
		dst.Any = a.anys[lo:hi:hi]
	case ColStrF64:
		dst.Offs = a.offs[lo : hi+1 : hi+1]
		dst.Bytes = a.bytes
		dst.F64 = a.f64[lo:hi:hi]
	case ColStrAny:
		dst.Offs = a.offs[lo : hi+1 : hi+1]
		dst.Bytes = a.bytes
		dst.Any = a.anys[lo:hi:hi]
	}
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
	lo, hi := int(a.starts[i]), int(a.starts[i+1])
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
	case ColStrF64:
		for i := lo; i < hi; i++ {
			total += float64(int64(a.offs[i+1]-a.offs[i])+24) * scale
		}
	case ColStrAny:
		for i := lo; i < hi; i++ {
			bb := float64(int64(a.offs[i+1]-a.offs[i]) + RowBytes(a.anys[i]) + 16)
			if rowScalesWithInput(a.anys[i]) {
				bb *= scale
			}
			total += bb
		}
	}
	return total
}

// kernelScratch is the working set of one combine or merge kernel call:
// the key→slot map (int or string), the per-slot arrays and the sort index.
// Every kernel takes it with takeScratch and hands it back through a
// deferred release, so the bail-outs, the non-pair error and a panicking
// user aggregator all return it. Nothing a kernel emits aliases it: the
// emitters copy the slots into fresh arena segments, the merges into a
// fresh []Row.
type kernelScratch struct {
	intSlots map[int64]int32
	strSlots map[string]int32
	ints     []int64   // slot → int key
	strs     []string  // slot → string key
	buckets  []int32   // slot (row, when scattering) → reduce bucket (map side)
	f64s     []float64 // slot → unboxed combiner
	anys     []any     // slot → boxed combiner
	idx      []int32   // slots in key order (reduce side), in arena order (emitColStr)
	// cursor is the map side's per-bucket counter and write cursor, one
	// entry per reduce bucket, all zero between calls: layout touches only
	// the entries of the buckets it is handed, listed in touched, and
	// release zeroes exactly those.
	cursor  []int32
	touched []int32
	class   int // the scratchPools entry it serves and returns to
}

// maxPooledSlots bounds the scratch the pool keeps, counting slots, rows
// and cursor entries alike: a pooled map or array keeps its memory, so a
// scratch one fat task (or one very wide shuffle) grew past this is
// dropped instead of being held for every later call.
const maxPooledSlots = 1 << 14

// scratchPools are pools, not per-worker fields, because the kernels also
// run with no engine around them (LocalRunner, the fuzz oracle, the layer
// probes); free lists, not sync.Pools, so a call's allocations do not
// depend on GC timing; and one per size class of call (class c: at most
// 64·2^c pairs, the last one larger) because a pooled map keeps its peak
// capacity and clear costs all of it: a small call must not pay for a
// large one.
var scratchPools [10]freelist.List[*kernelScratch]

// takeScratch returns a scratch of the size class of a call over pairs.
func takeScratch(pairs int) *kernelScratch {
	c := 0
	for limit := 64; pairs > limit && c < len(scratchPools)-1; limit *= 2 {
		c++
	}
	if s := scratchPools[c].Get(); s != nil {
		return s
	}
	return &kernelScratch{intSlots: map[int64]int32{}, strSlots: map[string]int32{}, class: c}
}

// release empties the scratch and pools it. The maps and the used prefixes
// of the pointer-bearing arrays are cleared — a pooled scratch must not
// keep the last task's keys and combiners alive, nor leak its slots into
// the next call — so every element within capacity stays zero; so does
// every cursor entry, whichever way the call left.
func (s *kernelScratch) release() {
	if max(len(s.ints)+len(s.strs), len(s.buckets), len(s.cursor)) > maxPooledSlots {
		return
	}
	for _, b := range s.touched {
		s.cursor[b] = 0
	}
	clear(s.intSlots)
	clear(s.strSlots)
	clear(s.strs)
	clear(s.anys)
	s.ints, s.strs, s.buckets = s.ints[:0], s.strs[:0], s.buckets[:0]
	s.f64s, s.anys, s.idx = s.f64s[:0], s.anys[:0], s.idx[:0]
	s.touched = s.touched[:0]
	scratchPools[s.class].Put(s)
}

// layout starts the arena of n reduce buckets over items whose buckets are
// bucketOf: it counts the items per bucket in the cursor, records the
// non-empty buckets ascending with their starts in the arena's one index
// table, and leaves cursor[b] at bucket b's first slot, so the caller
// places item j at cursor[bucketOf[j]]++ — each bucket in item order.
// It writes only the cursor entries of the buckets it is handed.
func (s *kernelScratch) layout(n int, bucketOf []int32) *ColBuckets {
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
	return &ColBuckets{buckets: n, ids: ids, starts: starts}
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

// PartitionPairsCol is the map side of a shuffle: it routes one map
// partition's pairs into a columnar ColBuckets arena when the rows fit a
// typed layout (or there are none: an empty arena, no segments), and
// otherwise falls back to the boxed buckets of partitionPairs wholesale.
// Exactly one of the results is non-nil. The produced buckets are
// byte-identical to partitionPairs in content and order on every path.
func PartitionPairsCol(rows []Row, p Partitioner, agg *Aggregator) (*ColBuckets, [][]Pair, error) {
	if len(rows) == 0 {
		return &ColBuckets{buckets: p.NumPartitions()}, nil, nil
	}
	if pr, ok := rows[0].(Pair); ok {
		_, vF64 := pr.V.(float64)
		if agg != nil && agg.MapSideCombine {
			f64 := vF64 && aggAllF64(agg)
			switch pr.K.(type) {
			case int:
				if a, ok, err := colCombineInt(rows, p, agg, f64); ok || err != nil {
					return a, nil, err
				}
			case string:
				if a, ok, err := colCombineStr(rows, p, agg, f64); ok || err != nil {
					return a, nil, err
				}
			}
		} else if _, isInt := pr.K.(int); isInt {
			// Without an aggregator the values may move into an unboxed
			// F64 segment (the reduce side boxes once per row on emission
			// either way). With a reduce-only aggregator the values stay
			// in their existing boxes so the reduce-side fold adds no
			// re-boxing.
			if a, ok, err := colScatterInt(rows, p, agg == nil && vF64); ok || err != nil {
				return a, nil, err
			}
		}
	}
	buckets, err := partitionPairs(rows, p, agg)
	return nil, buckets, err
}

// colCombineInt is the map-side combine writer for int keys. One global
// key→slot map replaces the per-bucket maps of the boxed path: per-key
// state lives in slot-order arrays, and emission scatters the slots
// bucket-major, preserving per-bucket first-occurrence order (every
// occurrence of a key lands in the same bucket, so the global
// first-occurrence order filtered to one bucket is that bucket's own).
func colCombineInt(rows []Row, p Partitioner, agg *Aggregator, f64 bool) (*ColBuckets, bool, error) {
	s := takeScratch(len(rows))
	defer s.release()

	if f64 {
		if agg.CreateF64 != nil && agg.MergeValueF64 != nil {
			for _, row := range rows {
				pr, ok := row.(Pair)
				if !ok {
					return nil, false, fmt.Errorf("rdd: shuffling non-pair row %T", row)
				}
				k, ok := pr.K.(int)
				if !ok {
					return nil, false, nil
				}
				v, ok := pr.V.(float64)
				if !ok {
					return nil, false, nil
				}
				if sl, ok := s.intSlots[int64(k)]; ok {
					s.f64s[sl] = agg.MergeValueF64(s.f64s[sl], v)
				} else {
					s.intSlots[int64(k)] = int32(len(s.ints))
					s.ints = append(s.ints, int64(k))
					s.buckets = append(s.buckets, int32(p.PartitionFor(pr.K)))
					s.f64s = append(s.f64s, agg.CreateF64(v))
				}
			}
			return emitColInt(s, p.NumPartitions(), true), true, nil
		}
		return nil, false, nil
	}

	for _, row := range rows {
		pr, ok := row.(Pair)
		if !ok {
			return nil, false, fmt.Errorf("rdd: shuffling non-pair row %T", row)
		}
		k, ok := pr.K.(int)
		if !ok {
			return nil, false, nil
		}
		if sl, ok := s.intSlots[int64(k)]; ok {
			s.anys[sl] = agg.MergeValue(s.anys[sl], pr.V)
		} else {
			s.intSlots[int64(k)] = int32(len(s.ints))
			s.ints = append(s.ints, int64(k))
			s.buckets = append(s.buckets, int32(p.PartitionFor(pr.K)))
			s.anys = append(s.anys, agg.Create(pr.V))
		}
	}
	return emitColInt(s, p.NumPartitions(), false), true, nil
}

// colCombineStr is colCombineInt for string keys; emission additionally
// packs the keys into the arena's shared byte segment, bucket-contiguous.
func colCombineStr(rows []Row, p Partitioner, agg *Aggregator, f64 bool) (*ColBuckets, bool, error) {
	s := takeScratch(len(rows))
	defer s.release()

	if f64 {
		if agg.CreateF64 != nil && agg.MergeValueF64 != nil {
			for _, row := range rows {
				pr, ok := row.(Pair)
				if !ok {
					return nil, false, fmt.Errorf("rdd: shuffling non-pair row %T", row)
				}
				k, ok := pr.K.(string)
				if !ok {
					return nil, false, nil
				}
				v, ok := pr.V.(float64)
				if !ok {
					return nil, false, nil
				}
				if sl, ok := s.strSlots[k]; ok {
					s.f64s[sl] = agg.MergeValueF64(s.f64s[sl], v)
				} else {
					s.strSlots[k] = int32(len(s.strs))
					s.strs = append(s.strs, k)
					s.buckets = append(s.buckets, int32(p.PartitionFor(pr.K)))
					s.f64s = append(s.f64s, agg.CreateF64(v))
				}
			}
			return emitColStr(s, p.NumPartitions(), true), true, nil
		}
		return nil, false, nil
	}

	for _, row := range rows {
		pr, ok := row.(Pair)
		if !ok {
			return nil, false, fmt.Errorf("rdd: shuffling non-pair row %T", row)
		}
		k, ok := pr.K.(string)
		if !ok {
			return nil, false, nil
		}
		if sl, ok := s.strSlots[k]; ok {
			s.anys[sl] = agg.MergeValue(s.anys[sl], pr.V)
		} else {
			s.strSlots[k] = int32(len(s.strs))
			s.strs = append(s.strs, k)
			s.buckets = append(s.buckets, int32(p.PartitionFor(pr.K)))
			s.anys = append(s.anys, agg.Create(pr.V))
		}
	}
	return emitColStr(s, p.NumPartitions(), false), true, nil
}

// emitColInt scatters combine slots into a bucket-major int-key arena;
// f64 selects the value segment (the slots' f64s, else their anys).
func emitColInt(s *kernelScratch, n int, f64 bool) *ColBuckets {
	a := s.layout(n, s.buckets)
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
		return a
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
	return a
}

// emitColStr scatters combine slots into a bucket-major string-key arena:
// the slots are first ordered by arena position (in the scratch's idx),
// then their keys pack in that order into one shared byte segment, so each
// bucket's keys are contiguous and the absolute offsets close over bucket
// boundaries (key i ends where key i+1 starts, the last ends at
// len(bytes)).
func emitColStr(s *kernelScratch, n int, f64 bool) *ColBuckets {
	a := s.layout(n, s.buckets)
	cur, keys := s.cursor, s.strs
	s.idx = slices.Grow(s.idx[:0], len(keys))[:len(keys)]
	order := s.idx
	size := 0
	for sl, b := range s.buckets {
		order[cur[b]] = int32(sl)
		cur[b]++
		size += len(keys[sl])
	}
	bytes := make([]byte, size)
	offs := make([]int32, len(keys)+1)
	off := 0
	for pos, sl := range order {
		offs[pos] = int32(off)
		off += copy(bytes[off:], keys[sl])
	}
	offs[len(keys)] = int32(off)
	a.offs, a.bytes = offs, bytes
	if f64 {
		a.kind = ColStrF64
		out := make([]float64, len(keys))
		for pos, sl := range order {
			out[pos] = s.f64s[sl]
		}
		a.f64 = out
		return a
	}
	a.kind = ColStrAny
	out := make([]any, len(keys))
	for pos, sl := range order {
		out[pos] = s.anys[sl]
	}
	a.anys = out
	return a
}

// colScatterInt is the combine-free arena writer for int keys: one pass
// validates the rows and records each one's bucket (one PartitionFor call
// per row), the second places each row in its bucket in input order.
// wantF64 moves all-float64 values into the unboxed segment; otherwise
// values keep their existing boxes in the any segment.
func colScatterInt(rows []Row, p Partitioner, wantF64 bool) (*ColBuckets, bool, error) {
	s := takeScratch(len(rows))
	defer s.release()

	s.buckets = slices.Grow(s.buckets, len(rows))
	allF64 := wantF64
	for _, row := range rows {
		pr, ok := row.(Pair)
		if !ok {
			return nil, false, fmt.Errorf("rdd: shuffling non-pair row %T", row)
		}
		if _, ok := pr.K.(int); !ok {
			return nil, false, nil
		}
		if allF64 {
			if _, ok := pr.V.(float64); !ok {
				allF64 = false
			}
		}
		s.buckets = append(s.buckets, int32(p.PartitionFor(pr.K)))
	}
	a := s.layout(p.NumPartitions(), s.buckets)
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
		return a, true, nil
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
	return a, true, nil
}

// MergeReduceCol is the reduce side of a shuffle over zero-copy views: it
// merges the blocks destined for one reduce partition (one per map task,
// in map-task order) directly out of the arenas — no per-pair boxing until
// the once-per-key (or once-per-row, without an aggregator) emission.
// Mixed or boxed-fallback inputs materialize into pairs and take the
// boxed reference path, byte-identical by construction.
func MergeReduceCol(blocks []*ColBlock, agg *Aggregator) []Row {
	return MergeReduceColN(len(blocks), func(i int, dst *ColBlock) { *dst = *blocks[i] }, agg)
}

// MergeReduceColN is the streaming form of MergeReduceCol: get(i, dst)
// must fully overwrite dst with block i's view (blocks are visited in
// map-task order, possibly more than once). The engine feeds it straight
// from the per-map arenas through shuffle.ReduceView.BlockInto, so a
// reduce merge never materializes a heap-resident slice of ~150-byte
// block headers — one block header is reused across each pass.
func MergeReduceColN(n int, get func(int, *ColBlock), agg *Aggregator) []Row {
	kind := ColNone
	total := 0
	mixed := false
	var blk ColBlock
	for i := 0; i < n; i++ {
		get(i, &blk)
		l := blk.Len()
		if l == 0 {
			continue
		}
		total += l
		switch k := blk.Kind; {
		case k == ColNone:
			mixed = true
		case kind == ColNone:
			kind = k
		case kind != k:
			mixed = true
		}
	}
	if total == 0 {
		return []Row{} // non-nil, like the boxed merge of nothing
	}
	if !mixed {
		switch kind {
		case ColIntF64:
			if agg == nil {
				return concatColIntF64(n, get, total)
			}
			if out, ok := mergeColIntF64(n, total, get, agg); ok {
				return out
			}
		case ColIntAny:
			if agg == nil {
				return concatColIntAny(n, get, total)
			}
			return mergeColIntAny(n, total, get, agg)
		case ColStrF64:
			if agg != nil {
				if out, ok := mergeColStrF64(n, total, get, agg); ok {
					return out
				}
			}
		case ColStrAny:
			if agg != nil {
				return mergeColStrAny(n, total, get, agg)
			}
		}
	}
	return mergeReduceBlocks(materializeCols(n, get), agg)
}

// materializeCols boxes columnar views back into pair blocks — the
// reference fallback for mixed kinds.
func materializeCols(n int, get func(int, *ColBlock)) [][]Pair {
	out := make([][]Pair, n)
	var blk ColBlock
	for i := 0; i < n; i++ {
		get(i, &blk)
		if l := blk.Len(); l > 0 {
			out[i] = blk.AppendPairs(make([]Pair, 0, l))
		}
	}
	return out
}

// concatColIntF64 is the no-aggregator merge for int/float64 blocks:
// concatenate in block order, stable-sort by key through an index
// permutation (the typed columns make comparisons and swaps cheap), box
// each row once on emission.
func concatColIntF64(n int, get func(int, *ColBlock), total int) []Row {
	keys := make([]int64, 0, total)
	vals := make([]float64, 0, total)
	var blk ColBlock
	for i := 0; i < n; i++ {
		get(i, &blk)
		keys = append(keys, blk.Int...)
		vals = append(vals, blk.F64...)
	}
	idx := stableKeyOrder(keys)
	out := make([]Row, total)
	for i, j := range idx {
		out[i] = Pair{K: int(keys[j]), V: vals[j]}
	}
	return out
}

// concatColIntAny is concatColIntF64 with boxed values.
func concatColIntAny(n int, get func(int, *ColBlock), total int) []Row {
	keys := make([]int64, 0, total)
	vals := make([]any, 0, total)
	var blk ColBlock
	for i := 0; i < n; i++ {
		get(i, &blk)
		keys = append(keys, blk.Int...)
		vals = append(vals, blk.Any...)
	}
	idx := stableKeyOrder(keys)
	out := make([]Row, total)
	for i, j := range idx {
		out[i] = Pair{K: int(keys[j]), V: vals[j]}
	}
	return out
}

// stableKeyOrder returns the stable-by-key permutation of keys.
func stableKeyOrder(keys []int64) []int32 {
	idx := make([]int32, len(keys))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(i, j int) bool { return keys[idx[i]] < keys[idx[j]] })
	return idx
}

// mergeColIntF64 is the unboxed reduce-side fold for int/float64 blocks,
// mirroring mergeBlocksGeneric with the aggregator's F64 hooks: map-task
// order, per-key fold in pair order, first-occurrence key tracking, sorted
// emission. Per-key state lives in slot arrays, so a repeated key costs
// one map lookup and an array store — no map assignment.
func mergeColIntF64(n, total int, get func(int, *ColBlock), agg *Aggregator) ([]Row, bool) {
	if agg.MergeCombinersF64 != nil && agg.CreateF64 != nil {
		s := takeScratch(total)
		defer s.release()
		var blk ColBlock
		for bi := 0; bi < n; bi++ {
			get(bi, &blk)
			f64s := blk.F64
			for i, k := range blk.Int {
				v := f64s[i]
				if sl, ok := s.intSlots[k]; ok {
					if agg.MapSideCombine {
						s.f64s[sl] = agg.MergeCombinersF64(s.f64s[sl], v)
					} else {
						s.f64s[sl] = agg.MergeValueF64(s.f64s[sl], v)
					}
				} else {
					s.intSlots[k] = int32(len(s.ints))
					s.ints = append(s.ints, k)
					if agg.MapSideCombine {
						s.f64s = append(s.f64s, v) // already a combiner from the map side
					} else {
						s.f64s = append(s.f64s, agg.CreateF64(v))
					}
				}
			}
		}
		out := make([]Row, len(s.ints))
		for i, sl := range sortedSlots(s, s.ints) {
			//lint:ignore boxf64 emission boxes once per key at the typed-region boundary; the per-record accumulation stays unboxed
			out[i] = Pair{K: int(s.ints[sl]), V: s.f64s[sl]}
		}
		return out, true
	}
	return nil, false
}

// mergeColIntAny folds int-keyed boxed values, mirroring mergeBlocksGeneric
// (the values were boxed at the source, so the fold itself adds no new
// boxes).
func mergeColIntAny(n, total int, get func(int, *ColBlock), agg *Aggregator) []Row {
	s := takeScratch(total)
	defer s.release()
	var blk ColBlock
	for bi := 0; bi < n; bi++ {
		get(bi, &blk)
		anys := blk.Any
		for i, k := range blk.Int {
			v := anys[i]
			if sl, ok := s.intSlots[k]; ok {
				if agg.MapSideCombine {
					s.anys[sl] = agg.MergeCombiners(s.anys[sl], v)
				} else {
					s.anys[sl] = agg.MergeValue(s.anys[sl], v)
				}
			} else {
				s.intSlots[k] = int32(len(s.ints))
				s.ints = append(s.ints, k)
				if agg.MapSideCombine {
					s.anys = append(s.anys, v) // already a combiner from the map side
				} else {
					s.anys = append(s.anys, agg.Create(v))
				}
			}
		}
	}
	out := make([]Row, len(s.ints))
	for i, sl := range sortedSlots(s, s.ints) {
		out[i] = Pair{K: int(s.ints[sl]), V: s.anys[sl]}
	}
	return out
}

// mergeColStrF64 is the unboxed fold for string/float64 blocks. Lookups go
// through the allocation-free m[string(bytes)] form; the key string is
// allocated exactly once per distinct key, at slot creation, and per-key
// state lives in slot arrays so no map assignment re-converts the key.
func mergeColStrF64(n, total int, get func(int, *ColBlock), agg *Aggregator) ([]Row, bool) {
	if agg.MergeCombinersF64 != nil && agg.CreateF64 != nil {
		s := takeScratch(total)
		defer s.release()
		var blk ColBlock
		for bi := 0; bi < n; bi++ {
			get(bi, &blk)
			for i := range blk.F64 {
				kb := blk.strKey(i)
				v := blk.F64[i]
				if sl, ok := s.strSlots[string(kb)]; ok {
					if agg.MapSideCombine {
						s.f64s[sl] = agg.MergeCombinersF64(s.f64s[sl], v)
					} else {
						s.f64s[sl] = agg.MergeValueF64(s.f64s[sl], v)
					}
				} else {
					k := string(kb)
					s.strSlots[k] = int32(len(s.strs))
					s.strs = append(s.strs, k)
					if agg.MapSideCombine {
						s.f64s = append(s.f64s, v) // already a combiner from the map side
					} else {
						s.f64s = append(s.f64s, agg.CreateF64(v))
					}
				}
			}
		}
		out := make([]Row, len(s.strs))
		for i, sl := range sortedSlots(s, s.strs) {
			//lint:ignore boxf64 emission boxes once per key at the typed-region boundary; the per-record accumulation stays unboxed
			out[i] = Pair{K: s.strs[sl], V: s.f64s[sl]}
		}
		return out, true
	}
	return nil, false
}

// mergeColStrAny folds string-keyed boxed values.
func mergeColStrAny(n, total int, get func(int, *ColBlock), agg *Aggregator) []Row {
	s := takeScratch(total)
	defer s.release()
	var blk ColBlock
	for bi := 0; bi < n; bi++ {
		get(bi, &blk)
		for i := range blk.Any {
			kb := blk.strKey(i)
			v := blk.Any[i]
			if sl, ok := s.strSlots[string(kb)]; ok {
				if agg.MapSideCombine {
					s.anys[sl] = agg.MergeCombiners(s.anys[sl], v)
				} else {
					s.anys[sl] = agg.MergeValue(s.anys[sl], v)
				}
			} else {
				k := string(kb)
				s.strSlots[k] = int32(len(s.strs))
				s.strs = append(s.strs, k)
				if agg.MapSideCombine {
					s.anys = append(s.anys, v) // already a combiner from the map side
				} else {
					s.anys = append(s.anys, agg.Create(v))
				}
			}
		}
	}
	out := make([]Row, len(s.strs))
	for i, sl := range sortedSlots(s, s.strs) {
		out[i] = Pair{K: s.strs[sl], V: s.anys[sl]}
	}
	return out
}
