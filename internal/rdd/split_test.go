package rdd

import (
	"testing"
	"testing/quick"
)

func TestPartitionPairsNoAgg(t *testing.T) {
	p := NewHashPartitioner(4)
	rows := []Row{Pair{K: 1, V: "a"}, Pair{K: 2, V: "b"}, Pair{K: 1, V: "c"}}
	buckets, err := partitionPairs(rows, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range buckets {
		total += len(b)
	}
	if total != 3 {
		t.Fatalf("pairs lost or duplicated: %d", total)
	}
	// Same key must land in the same bucket.
	b1 := p.PartitionFor(1)
	found := 0
	for _, pr := range buckets[b1] {
		if pr.K == 1 {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("duplicate key split across buckets")
	}
}

func TestPartitionPairsMapSideCombine(t *testing.T) {
	p := NewHashPartitioner(2)
	rows := []Row{
		Pair{K: 1, V: 1.0}, Pair{K: 1, V: 2.0}, Pair{K: 2, V: 5.0},
	}
	buckets, err := partitionPairs(rows, p, SumAggregator())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range buckets {
		total += len(b)
		for _, pr := range b {
			if pr.K == 1 && pr.V.(float64) != 3.0 {
				t.Fatalf("map-side combine failed: %v", pr)
			}
		}
	}
	if total != 2 {
		t.Fatalf("map-side combine should collapse to 2 pairs, got %d", total)
	}
}

func TestPartitionPairsRejectsNonPairs(t *testing.T) {
	p := NewHashPartitioner(2)
	if _, err := partitionPairs([]Row{42}, p, nil); err == nil {
		t.Fatalf("expected error for non-pair row")
	}
	if _, err := partitionPairs([]Row{"x"}, p, SumAggregator()); err == nil {
		t.Fatalf("expected error for non-pair row with aggregator")
	}
}

func TestMergeReduceBlocksNoAggSortsByKey(t *testing.T) {
	blocks := [][]Pair{
		{{K: 5, V: "e"}, {K: 1, V: "a"}},
		{{K: 3, V: "c"}},
	}
	rows := mergeReduceBlocks(blocks, nil)
	if len(rows) != 3 {
		t.Fatalf("merge lost rows")
	}
	keys := []int{rows[0].(Pair).K.(int), rows[1].(Pair).K.(int), rows[2].(Pair).K.(int)}
	if keys[0] != 1 || keys[1] != 3 || keys[2] != 5 {
		t.Fatalf("merge output not key-sorted: %v", keys)
	}
}

func TestMergeReduceBlocksCombines(t *testing.T) {
	agg := SumAggregator()
	blocks := [][]Pair{
		{{K: "a", V: 1.0}, {K: "b", V: 2.0}},
		{{K: "a", V: 3.0}},
	}
	rows := mergeReduceBlocks(blocks, agg)
	if len(rows) != 2 {
		t.Fatalf("merge should yield 2 keys, got %d", len(rows))
	}
	m := map[any]float64{}
	for _, r := range rows {
		pr := r.(Pair)
		m[pr.K] = pr.V.(float64)
	}
	if m["a"] != 4.0 || m["b"] != 2.0 {
		t.Fatalf("combine wrong: %v", m)
	}
}

func TestMergeReduceBlocksReduceSideOnlyAgg(t *testing.T) {
	// Without MapSideCombine the merge path must use Create/MergeValue.
	agg := GroupAggregator()
	blocks := [][]Pair{
		{{K: 1, V: "a"}, {K: 1, V: "b"}},
		{{K: 1, V: "c"}},
	}
	rows := mergeReduceBlocks(blocks, agg)
	if len(rows) != 1 {
		t.Fatalf("expected single key")
	}
	vs := rows[0].(Pair).V.([]any)
	if len(vs) != 3 {
		t.Fatalf("grouping lost values: %v", vs)
	}
}

func TestSampleKeysForRange(t *testing.T) {
	parts := [][]Row{
		{Pair{K: 1, V: 0}, Pair{K: 2, V: 0}, Pair{K: 3, V: 0}},
		{},
		{Pair{K: 9, V: 0}},
	}
	keys := SampleKeysForRange(parts, 2)
	if len(keys) == 0 {
		t.Fatalf("no keys sampled")
	}
	for _, k := range keys {
		if _, ok := k.(int); !ok {
			t.Fatalf("unexpected key type %T", k)
		}
	}
}

// Property: partition-then-merge without aggregation is a permutation of the
// input restricted to each reduce bucket; total row count is conserved.
func TestQuickShuffleConservesRows(t *testing.T) {
	f := func(keys []uint8) bool {
		p := NewHashPartitioner(5)
		rows := make([]Row, len(keys))
		for i, k := range keys {
			rows[i] = Pair{K: int(k), V: i}
		}
		buckets, err := partitionPairs(rows, p, nil)
		if err != nil {
			return false
		}
		total := 0
		for r := 0; r < 5; r++ {
			merged := mergeReduceBlocks([][]Pair{buckets[r]}, nil)
			total += len(merged)
		}
		return total == len(rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a sum aggregator, the per-key totals after partition+merge
// equal the driver-side sums, regardless of how rows are split into map
// partitions.
func TestQuickShuffleSumInvariant(t *testing.T) {
	f := func(keys []uint8, cut uint8) bool {
		p := NewHashPartitioner(3)
		var rows []Row
		want := map[int]float64{}
		for i, k := range keys {
			key := int(k % 10)
			v := float64(i + 1)
			rows = append(rows, Pair{K: key, V: v})
			want[key] += v
		}
		split := 0
		if len(rows) > 0 {
			split = int(cut) % (len(rows) + 1)
		}
		mapParts := [][]Row{rows[:split], rows[split:]}
		agg := SumAggregator()
		perReduce := make([][][]Pair, 3)
		for _, mp := range mapParts {
			buckets, err := partitionPairs(mp, p, agg)
			if err != nil {
				return false
			}
			for r := 0; r < 3; r++ {
				perReduce[r] = append(perReduce[r], buckets[r])
			}
		}
		got := map[int]float64{}
		for r := 0; r < 3; r++ {
			for _, row := range mergeReduceBlocks(perReduce[r], agg) {
				pr := row.(Pair)
				got[pr.K.(int)] = pr.V.(float64)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
