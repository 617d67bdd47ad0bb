// split.go is the boxed tier of the shuffle: one interface-keyed
// implementation of the map-side split and the reduce-side merge. It is
// the engine's tier for the rows the columnar arenas (arena.go) do not
// type — keys of any type but int, or of mixed types — whose buckets the
// engine's map output then carries in a ColNone arena; LocalRunner's whole
// shuffle; and thereby the reference the engine-vs-oracle fuzz and the
// arena equivalence tests compare the columnar tier against. It stays
// small and obviously correct rather than fast.
package rdd

import (
	"fmt"
	"sort"
)

// partitionPairs is the boxed map side of a shuffle: it routes the pair
// rows of one map partition to reduce buckets under p, applying the
// aggregator map-side when requested. Buckets keep input order without
// combine and first-occurrence key order with combine, with a fixed fold
// order per key — the contract the columnar writer reproduces.
func partitionPairs(rows []Row, p Partitioner, agg *Aggregator) ([][]Pair, error) {
	if agg != nil && agg.MapSideCombine {
		return combineGeneric(rows, p, agg)
	}
	return scatterPairs(rows, p)
}

// scatterPairs is the combine-free map side: each row lands in its bucket in
// input order. The bucket index is computed once per row, then buckets are
// allocated at exact size — no append growth, one allocation per non-empty
// bucket.
func scatterPairs(rows []Row, p Partitioner) ([][]Pair, error) {
	n := p.NumPartitions()
	idx := make([]int32, len(rows))
	counts := make([]int32, n)
	for i, row := range rows {
		pr, ok := row.(Pair)
		if !ok {
			return nil, fmt.Errorf("rdd: shuffling non-pair row %T", row)
		}
		b := p.PartitionFor(pr.K)
		idx[i] = int32(b)
		counts[b]++
	}
	buckets := make([][]Pair, n)
	for b := range buckets {
		if counts[b] > 0 {
			buckets[b] = make([]Pair, 0, counts[b])
		}
	}
	for i, row := range rows {
		b := idx[i]
		buckets[b] = append(buckets[b], row.(Pair))
	}
	return buckets, nil
}

// combineGeneric is the interface-keyed map-side combine; any key and
// value types the Partitioner accepts work here.
func combineGeneric(rows []Row, p Partitioner, agg *Aggregator) ([][]Pair, error) {
	n := p.NumPartitions()
	sizeHint := len(rows)/n + 1
	combined := make([]map[any]any, n)
	orders := make([][]any, n)
	for _, row := range rows {
		pr, ok := row.(Pair)
		if !ok {
			return nil, fmt.Errorf("rdd: shuffling non-pair row %T", row)
		}
		b := p.PartitionFor(pr.K)
		if combined[b] == nil {
			combined[b] = make(map[any]any, sizeHint)
		}
		if acc, ok := combined[b][pr.K]; ok {
			combined[b][pr.K] = agg.MergeValue(acc, pr.V)
		} else {
			combined[b][pr.K] = agg.Create(pr.V)
			orders[b] = append(orders[b], pr.K)
		}
	}
	buckets := make([][]Pair, n)
	for b, ord := range orders {
		if len(ord) == 0 {
			continue
		}
		bucket := make([]Pair, len(ord))
		for i, k := range ord {
			bucket[i] = Pair{K: k, V: combined[b][k]}
		}
		buckets[b] = bucket
	}
	return buckets, nil
}

// mergeReduceBlocks is the boxed reduce side: it merges the shuffle blocks
// destined for one reduce partition (one block per map task, in map-task
// order) into the reduce input rows. With an aggregator, values combine
// per key; without one, pairs concatenate in block order. Output keys are
// sorted so downstream computation is deterministic regardless of
// execution interleaving.
func mergeReduceBlocks(blocks [][]Pair, agg *Aggregator) []Row {
	total := 0
	for _, blk := range blocks {
		total += len(blk)
	}
	if agg == nil {
		return mergeConcat(blocks, total)
	}
	return mergeBlocksGeneric(blocks, total, agg)
}

// mergeConcat concatenates blocks and stable-sorts by key. The sort runs
// over the unboxed []Pair (cheap swaps); rows are boxed exactly once
// afterwards.
func mergeConcat(blocks [][]Pair, total int) []Row {
	pairs := make([]Pair, 0, total)
	for _, blk := range blocks {
		pairs = append(pairs, blk...)
	}
	sort.SliceStable(pairs, func(i, j int) bool { return CompareKeys(pairs[i].K, pairs[j].K) < 0 })
	out := make([]Row, len(pairs))
	for i := range pairs {
		out[i] = pairs[i]
	}
	return out
}

// mergeBlocksGeneric is the interface-keyed reduce-side combine.
func mergeBlocksGeneric(blocks [][]Pair, total int, agg *Aggregator) []Row {
	acc := make(map[any]any, total)
	order := make([]any, 0, total)
	for _, blk := range blocks {
		for _, pr := range blk {
			if cur, ok := acc[pr.K]; ok {
				if agg.MapSideCombine {
					acc[pr.K] = agg.MergeCombiners(cur, pr.V)
				} else {
					acc[pr.K] = agg.MergeValue(cur, pr.V)
				}
			} else {
				if agg.MapSideCombine {
					acc[pr.K] = pr.V // already a combiner from the map side
				} else {
					acc[pr.K] = agg.Create(pr.V)
				}
				order = append(order, pr.K)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return CompareKeys(order[i], order[j]) < 0 })
	out := make([]Row, len(order))
	for i, k := range order {
		out[i] = Pair{K: k, V: acc[k]}
	}
	return out
}

// SampleKeysForRange extracts up to perPart keys from each map partition's
// rows, used to fit range-partitioner bounds before a range shuffle.
func SampleKeysForRange(partitions [][]Row, perPart int) []any {
	var sample []any
	for _, rows := range partitions {
		if len(rows) == 0 {
			continue
		}
		stride := len(rows)/perPart + 1
		for i := 0; i < len(rows); i += stride {
			if pr, ok := rows[i].(Pair); ok {
				sample = append(sample, pr.K)
			}
		}
	}
	return sample
}
