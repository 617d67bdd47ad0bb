package rdd

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// referenceCoGroup is CoGroup's compute before its groups moved into
// per-task slabs: a map of per-key side pairs grown by append, and the keys
// sorted by CompareKeys — stably, so keys CompareKeys ties (int 3 and
// int64 3) keep their first appearance order, the order the slab form
// promises. It is the reference FuzzCoGroupMatchesReference compares with.
func referenceCoGroup(in [][]Row, narrow [2]bool) []Row {
	groups := map[any]*[2][]any{}
	var order []any
	add := func(src int, k any, vs ...any) {
		g, ok := groups[k]
		if !ok {
			g = &[2][]any{}
			groups[k] = g
			order = append(order, k)
		}
		g[src] = append(g[src], vs...)
	}
	for i := range in {
		for _, row := range in[i] {
			pr := row.(Pair)
			if narrow[i] {
				add(i, pr.K, pr.V)
			} else {
				add(i, pr.K, pr.V.([]any)...)
			}
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return CompareKeys(order[a], order[b]) < 0 })
	out := make([]Row, len(order))
	for i, k := range order {
		g := groups[k]
		out[i] = Pair{K: k, V: [][]any{g[0], g[1]}}
	}
	return out
}

// referenceJoin is Join's compute before it sized its output: every match
// appended, nil when nothing matches.
func referenceJoin(cogrouped []Row) []Row {
	var out []Row
	for _, row := range cogrouped {
		pr := row.(Pair)
		sides := pr.V.([][]any)
		for _, lv := range sides[0] {
			for _, rv := range sides[1] {
				out = append(out, Pair{K: pr.K, V: JoinedValue{Left: lv, Right: rv}})
			}
		}
	}
	return out
}

// drawCoGroup draws one cogroup task's input: per side, narrow (one value
// per record, keys repeating) or shuffled (one merged group per key), 0–64
// records over int, string or mixed int/int32/int64 keys — the mixed ones
// tie under CompareKeys while staying distinct keys. A shuffled group
// carries spare capacity, as GroupAggregator's appends leave it, is
// sometimes empty, and now and then repeats its key.
func drawCoGroup(rng *rand.Rand) ([][]Row, [2]bool) {
	kind, span := rng.Intn(3), 1+rng.Intn(24)
	key := func() any {
		k := rng.Intn(span)
		switch {
		case kind == 1:
			return fmt.Sprintf("k%02d", k)
		case kind == 2 && rng.Intn(3) == 0:
			return int32(k)
		case kind == 2 && rng.Intn(2) == 0:
			return int64(k)
		}
		return k
	}
	var narrow [2]bool
	in := make([][]Row, 2)
	for side := range in {
		narrow[side] = rng.Intn(2) == 0
		n := rng.Intn(65)
		if rng.Intn(8) == 0 {
			n = 0
		}
		seen := map[any]bool{}
		for r := 0; r < n; r++ {
			k := key()
			if narrow[side] {
				in[side] = append(in[side], Pair{K: k, V: fmt.Sprintf("v%d.%d", side, r)})
				continue
			}
			if seen[k] && rng.Intn(16) != 0 {
				continue
			}
			seen[k] = true
			size := 1 + rng.Intn(3)
			if rng.Intn(10) == 0 {
				size = 0
			}
			g := make([]any, size, size+rng.Intn(3))
			for j := range g {
				g[j] = fmt.Sprintf("g%d.%d.%d", side, r, j)
			}
			in[side] = append(in[side], Pair{K: k, V: g})
		}
	}
	return in, narrow
}

// checkCoGroup runs CoGroup's and Join's computes over one task input and
// compares them with the references by reflect.DeepEqual, which also tells
// a nil side from an empty one. Every side and every side pair must be
// capacity-clamped, so an append reallocates instead of running into the
// next group, and keys CompareKeys ties must come in first appearance order.
func checkCoGroup(t *testing.T, in [][]Row, narrow [2]bool) {
	t.Helper()
	ctx := NewContext(2)
	p := NewHashPartitioner(3)
	parent := func(i int) *RDD {
		r := ctx.Parallelize(nil, 1)
		if narrow[i] {
			r = r.PartitionBy(p)
		}
		return r
	}
	left, right := parent(0), parent(1)
	cg := left.CoGroup(right, p)
	for i, d := range cg.Deps {
		if _, ok := d.(*NarrowDep); ok != narrow[i] {
			t.Fatalf("side %d: dependency %T, want narrow %v", i, d, narrow[i])
		}
	}
	got := cg.Compute(0, in)
	want := referenceCoGroup(in, narrow)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cogroup of %v (narrow %v):\n got %#v\nwant %#v", in, narrow, got, want)
	}
	first := map[any]int{}
	for _, rows := range in {
		for _, row := range rows {
			if k := row.(Pair).K; first[k] == 0 {
				first[k] = len(first) + 1
			}
		}
	}
	for i, row := range got {
		pr := row.(Pair)
		sides := pr.V.([][]any)
		if cap(sides) != 2 {
			t.Fatalf("key %v: side pair has capacity %d, want 2", pr.K, cap(sides))
		}
		for s, side := range sides {
			if cap(side) != len(side) {
				t.Fatalf("key %v side %d: length %d, capacity %d", pr.K, s, len(side), cap(side))
			}
		}
		if i > 0 {
			prev := got[i-1].(Pair).K
			if CompareKeys(prev, pr.K) == 0 && first[prev] > first[pr.K] {
				t.Fatalf("tied keys %v (%T) and %v (%T) out of first appearance order", prev, prev, pr.K, pr.K)
			}
		}
	}
	joined := left.Join(right, p)
	if gotJ, wantJ := joined.Compute(0, [][]Row{got}), referenceJoin(want); !reflect.DeepEqual(gotJ, wantJ) {
		t.Fatalf("join of %v (narrow %v):\n got %#v\nwant %#v", in, narrow, gotJ, wantJ)
	}
}

// TestCoGroupMatchesReference runs fixed edge cases and 500 drawn inputs.
func TestCoGroupMatchesReference(t *testing.T) {
	both := [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}}
	for _, narrow := range both {
		checkCoGroup(t, [][]Row{nil, nil}, narrow)
	}
	tied := []Row{Pair{K: int64(3), V: []any{"a"}}, Pair{K: 3, V: []any{}}, Pair{K: int32(3), V: []any{"b", "c"}}}
	checkCoGroup(t, [][]Row{tied, {Pair{K: 3, V: "x"}, Pair{K: int64(3), V: "y"}}}, [2]bool{false, true})
	checkCoGroup(t, [][]Row{{Pair{K: "a", V: []any{}}}, nil}, [2]bool{false, false})
	for seed := int64(0); seed < 500; seed++ {
		in, narrow := drawCoGroup(rand.New(rand.NewSource(seed)))
		checkCoGroup(t, in, narrow)
	}
}

// FuzzCoGroupMatchesReference explores drawn inputs; ci.sh runs it for 5 s.
func FuzzCoGroupMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		in, narrow := drawCoGroup(rand.New(rand.NewSource(seed)))
		checkCoGroup(t, in, narrow)
	})
}
