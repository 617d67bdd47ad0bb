package workloads

import (
	"math"
	"reflect"
	"testing"

	"chopper/internal/rdd"
)

// localRun runs w on the single-threaded oracle at the given default
// parallelism, which every source of the built-ins is split into.
func localRun(t *testing.T, w Workload, splits int) Result {
	t.Helper()
	ctx := rdd.NewContext(splits)
	ctx.SetRunner(rdd.NewLocalRunner())
	res, err := w.Run(ctx, w.DefaultInputBytes())
	if err != nil {
		t.Fatalf("%s at %d splits: %v", w.Name(), splits, err)
	}
	return res
}

// recordedLayouts counts the layouts w has recorded partitions of.
func recordedLayouts(w Workload) int {
	n := 0
	for _, l := range memoOf(w).layouts {
		for _, p := range l.parts {
			if p.ok {
				n++
				break
			}
		}
	}
	return n
}

func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	if math.Float64bits(got.Checksum) != math.Float64bits(want.Checksum) || !reflect.DeepEqual(got.Details, want.Details) {
		t.Errorf("%s: %v, want %v", what, got, want)
	}
}

// TestMemoRecordsOnSecondRun: a value run once records nothing, its
// second run records every partition of every source, and the third
// replays them to the same result.
func TestMemoRecordsOnSecondRun(t *testing.T) {
	for _, w := range AllWithExtensions() {
		Shrink(w, 10)
		first := localRun(t, w, 6)
		if n := len(memoOf(w).layouts); n != 0 {
			t.Fatalf("%s: one run recorded %d layouts", w.Name(), n)
		}
		sameResult(t, w.Name()+" second run", localRun(t, w, 6), first)
		sources := 1
		if w.Name() == "sql" {
			sources = 2
		}
		if n := len(memoOf(w).layouts); n != sources {
			t.Fatalf("%s: two runs recorded %d layouts, want its %d sources'", w.Name(), n, sources)
		}
		for _, l := range memoOf(w).layouts {
			for split, p := range l.parts {
				if !p.ok {
					t.Fatalf("%s: %s split %d of %d not recorded", w.Name(), l.source, split, l.splits)
				}
			}
		}
		sameResult(t, w.Name()+" third run", localRun(t, w, 6), first)
	}
}

// TestMemoBoundsLayouts runs SQL's two sources at six partition counts,
// each twice: the value records no more than maxLayouts layouts, and
// every run computes what a fresh value does.
func TestMemoBoundsLayouts(t *testing.T) {
	w := NewSQL()
	Shrink(w, 10)
	for _, splits := range []int{3, 4, 5, 6, 7, 8} {
		fresh := NewSQL()
		Shrink(fresh, 10)
		want := localRun(t, fresh, splits)
		for range 2 {
			sameResult(t, "sql", localRun(t, w, splits), want)
		}
	}
	if n := recordedLayouts(w); n != maxLayouts {
		t.Fatalf("recorded %d layouts, want %d", n, maxLayouts)
	}
}

// TestMemoForgetsChangedParameters: after a layout is recorded, a change
// to a generator's input — Rows, Seed, or a Shrink — drops it, and the
// next runs compute what a fresh value with those parameters does.
func TestMemoForgetsChangedParameters(t *testing.T) {
	for _, change := range []struct {
		name string
		f    func(*KMeans)
	}{
		{"Rows", func(k *KMeans) { k.Rows -= 100 }},
		{"Seed", func(k *KMeans) { k.Seed++ }},
		{"Shrink", func(k *KMeans) { Shrink(k, 2) }},
	} {
		k := NewKMeans()
		Shrink(k, 4)
		for range 3 {
			localRun(t, k, 6)
		}
		if recordedLayouts(k) != 1 {
			t.Fatalf("%s: three runs recorded no layout", change.name)
		}
		change.f(k)
		fresh := NewKMeans()
		Shrink(fresh, 4)
		change.f(fresh)
		want := localRun(t, fresh, 6)
		for i := range 3 {
			sameResult(t, change.name+" changed", localRun(t, k, 6), want)
			if n := recordedLayouts(k); n != min(i, 1) {
				t.Fatalf("%s changed, run %d: %d recorded layouts, want %d", change.name, i+1, n, min(i, 1))
			}
		}
	}
}
