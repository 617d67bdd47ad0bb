package rdd

import (
	"testing"
	"testing/quick"
)

func TestKeyHashStability(t *testing.T) {
	if KeyHash(42) != KeyHash(42) {
		t.Fatalf("hash not stable for int")
	}
	if KeyHash("abc") != KeyHash("abc") {
		t.Fatalf("hash not stable for string")
	}
	if KeyHash(int64(7)) != KeyHash(7) {
		t.Fatalf("int and int64 of same value should hash equal")
	}
	if KeyHash(1) == KeyHash(2) {
		t.Fatalf("distinct ints should (almost surely) hash differently")
	}
}

func TestKeyHashSpreadsSequentialInts(t *testing.T) {
	// Sequential keys must not stripe over a small modulus.
	const n = 10
	counts := make([]int, n)
	for i := 0; i < 1000; i++ {
		counts[KeyHash(i)%n]++
	}
	for b, c := range counts {
		if c < 50 || c > 200 {
			t.Fatalf("bucket %d badly balanced: %d of 1000", b, c)
		}
	}
}

func TestCompareKeys(t *testing.T) {
	cases := []struct {
		a, b any
		want int
	}{
		{1, 2, -1}, {2, 1, 1}, {3, 3, 0},
		{int64(5), 6, -1},
		{"a", "b", -1}, {"b", "a", 1}, {"x", "x", 0},
		{1.5, 2.5, -1}, {2.5, 2.5, 0},
	}
	for _, c := range cases {
		if got := CompareKeys(c.a, c.b); got != c.want {
			t.Errorf("CompareKeys(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareKeysMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for mismatched key types")
		}
	}()
	CompareKeys("a", 1)
}

type fatRow struct{ n int64 }

func (f fatRow) LogicalBytes() int64 { return f.n }

func TestRowBytes(t *testing.T) {
	if RowBytes(1) != 8 || RowBytes(1.0) != 8 {
		t.Fatalf("scalar size wrong")
	}
	if got := RowBytes("hello"); got != 13 {
		t.Fatalf("string size = %d, want 13", got)
	}
	if got := RowBytes([]float64{1, 2, 3}); got != 40 {
		t.Fatalf("vector size = %d, want 40", got)
	}
	p := Pair{K: int64(1), V: "ab"}
	if got := RowBytes(p); got != 8+10+8 {
		t.Fatalf("pair size = %d", got)
	}
	if got := RowBytes(fatRow{n: 1234}); got != 1234 {
		t.Fatalf("Sizer not honored: %d", got)
	}
	if RowBytes(nil) <= 0 {
		t.Fatalf("nil row should have positive size")
	}
}

// cogroupBytesBoxed is RowBytes' cogroup case as it was: each side sized
// through RowBytes, which boxes the inner slice.
func cogroupBytesBoxed(v [][]any) int64 {
	var sum int64 = 24
	for _, e := range v {
		sum += RowBytes(e)
	}
	return sum
}

// TestRowBytesSizesCogroupRowsInPlace: a cogroup row ([][]any under a
// pair) is sized without allocating, to the same integer as before.
func TestRowBytesSizesCogroupRowsInPlace(t *testing.T) {
	f := func(left []float64, right []string, key int) bool {
		sides := [][]any{make([]any, len(left)), make([]any, len(right))}
		for i, v := range left {
			sides[0][i] = v
		}
		for i, v := range right {
			sides[1][i] = v
		}
		return RowBytes(sides) == cogroupBytesBoxed(sides) &&
			RowBytes(Pair{K: key, V: sides}) == 8+cogroupBytesBoxed(sides)+8 &&
			RowBytes([][]any{}) == 24 && RowBytes([][]any{nil}) == 48
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	var row Row = Pair{K: 7, V: [][]any{{1.5, 2.5, "x"}, {[]float64{1, 2}}}}
	if n := testing.AllocsPerRun(100, func() { RowBytes(row) }); n != 0 {
		t.Fatalf("RowBytes allocated %v objects sizing a cogroup row, want 0", n)
	}
}

func TestRowsBytesSums(t *testing.T) {
	rows := []Row{1, "ab", []float64{1}}
	want := RowBytes(1) + RowBytes("ab") + RowBytes([]float64{1})
	if got := RowsBytes(rows); got != want {
		t.Fatalf("RowsBytes = %d, want %d", got, want)
	}
}

// Property: CompareKeys is a strict weak ordering for int keys (antisymmetry
// and transitivity on a sample).
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int) bool {
		return CompareKeys(a, b) == -CompareKeys(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: equal string keys hash equal; hash is deterministic.
func TestQuickStringHashDeterministic(t *testing.T) {
	f := func(s string) bool { return KeyHash(s) == KeyHash(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RowBytes is non-negative for a grab-bag of row shapes.
func TestQuickRowBytesPositive(t *testing.T) {
	f := func(i int, s string, fs []float64) bool {
		return RowBytes(i) > 0 && RowBytes(s) > 0 && RowBytes(fs) > 0 &&
			RowBytes(Pair{K: i, V: s}) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
