package shuffle

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"chopper/internal/rdd"
)

// colBlocksFor partitions deterministic float64 pairs through the arena
// writer and wraps the arena as a map task's shuffle output.
func colBlocksFor(t *testing.T, seed, rows, numReduce int, agg *rdd.Aggregator) MapOutput {
	t.Helper()
	in := make([]rdd.Row, 0, rows)
	for i := 0; i < rows; i++ {
		in = append(in, rdd.Pair{K: (seed + i) % 11, V: float64(seed*rows + i)})
	}
	cols, boxed, err := rdd.PartitionPairsCol(in, rdd.NewHashPartitioner(numReduce), agg)
	if err != nil {
		t.Fatal(err)
	}
	if cols == nil {
		t.Fatalf("expected columnar partition, got boxed (%d buckets)", len(boxed))
	}
	payloads := make([]int64, numReduce)
	for r := range payloads {
		payloads[r] = int64(cols.LogicalBytes(r, 1))
	}
	return MapOutput{Cols: cols, Payloads: payloads}
}

// TestRetireExceptLifecycle pins the generation protocol: retirement frees
// exactly the non-live shuffles, every subsequent access panics with a
// lifecycle message, and re-registering a retired id resets it fresh.
func TestRetireExceptLifecycle(t *testing.T) {
	m := NewManager(5, 1)
	agg := rdd.SumAggregator()
	m.Register(1, 2, 3)
	m.Register(2, 2, 3)
	for mt := 0; mt < 2; mt++ {
		m.PutMapOutput(1, mt, "A", colBlocksFor(t, mt, 50, 3, agg))
		m.PutMapOutput(2, mt, "B", colBlocksFor(t, mt, 50, 3, agg))
	}
	if n := m.RetireExcept([]int{2}); n != 1 {
		t.Fatalf("retired %d shuffles, want 1", n)
	}
	// Retiring again is a no-op: the generation is already gone.
	if n := m.RetireExcept([]int{2}); n != 0 {
		t.Fatalf("second retire freed %d shuffles, want 0", n)
	}

	// The live shuffle is untouched.
	if !complete(m, 2) {
		t.Fatalf("live shuffle lost its outputs")
	}
	if got := merge(blocks(m.ReduceInput(2, 0)), agg); len(got) == 0 {
		t.Fatalf("live shuffle reduce input empty")
	}

	// Every access to the retired generation panics loudly.
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected read/write-after-retirement panic", name)
			}
		}()
		f()
	}
	mustPanic("ReduceInput", func() { m.ReduceInput(1, 0) })
	mustPanic("ReduceNodeBytes", func() { m.ReduceNodeBytes(1, 0) })
	mustPanic("BestReduceNode", func() { m.BestReduceNode([]int{2, 1}, 0) })
	mustPanic("PutMapOutput", func() { m.PutMapOutput(1, 0, "A", colBlocksFor(t, 0, 50, 3, agg)) })

	// A stage retune re-registers the id and starts a fresh generation.
	m.Register(1, 1, 2)
	m.PutMapOutput(1, 0, "C", colBlocksFor(t, 3, 40, 2, agg))
	if !complete(m, 1) {
		t.Fatalf("re-registered shuffle should accept writes again")
	}
}

type arenaCanary struct{ pad [64]byte }

// putCanaryArena builds a columnar scatter arena whose Any value column
// holds the canary pointer and stores it in the manager. Everything but
// the manager's own reference goes out of scope when it returns.
func putCanaryArena(t *testing.T, m *Manager, c *arenaCanary) {
	t.Helper()
	rows := []rdd.Row{
		rdd.Pair{K: 1, V: c},
		rdd.Pair{K: 2, V: "filler"},
		rdd.Pair{K: 3, V: 4.0},
	}
	cols, _, err := rdd.PartitionPairsCol(rows, rdd.NewHashPartitioner(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	var blk rdd.ColBlock
	cols.BlockInto(0, &blk)
	if blk.Kind != rdd.ColIntAny {
		t.Fatalf("canary rows must land in an any-value arena, got %+v", cols)
	}
	payloads := make([]int64, 2)
	for r := range payloads {
		payloads[r] = int64(cols.LogicalBytes(r, 1))
	}
	m.PutMapOutput(9, 0, "A", MapOutput{Cols: cols, Payloads: payloads})
}

// TestRetiredArenaIsUnreachable proves retirement actually releases arena
// memory: a finalizer on a value held only by a shuffle's arena fires once
// the generation retires, and never before.
func TestRetiredArenaIsUnreachable(t *testing.T) {
	m := NewManager(0, 0)
	m.Register(9, 1, 2)
	freed := make(chan struct{})
	c := &arenaCanary{}
	runtime.SetFinalizer(c, func(*arenaCanary) { close(freed) })
	putCanaryArena(t, m, c)
	c = nil

	// While the generation lives, the arena pins the canary.
	runtime.GC()
	runtime.GC()
	select {
	case <-freed:
		t.Fatalf("canary freed while its generation was live")
	default:
	}

	if n := m.RetireExcept(nil); n != 1 {
		t.Fatalf("retired %d shuffles, want 1", n)
	}
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatalf("retired arena still reachable: canary finalizer never ran")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestConcurrentGenerations runs writers, locality readers, and a
// retirement across two overlapping shuffle generations under the race
// detector, and checks that views handed out before retirement stay
// stable (the reader holds the arena alive; the manager merely drops its
// reference).
func TestConcurrentGenerations(t *testing.T) {
	const maps, reduces = 4, 3
	m := NewManager(2, 1)
	agg := rdd.SumAggregator()

	// Generation 1: concurrent map writers.
	m.Register(1, maps, reduces)
	var wg sync.WaitGroup
	for mt := 0; mt < maps; mt++ {
		wg.Add(1)
		go func(mt int) {
			defer wg.Done()
			m.PutMapOutput(1, mt, fmt.Sprintf("N%d", mt%2), colBlocksFor(t, mt, 80, reduces, agg))
		}(mt)
	}
	wg.Wait()

	// Retain a pre-retirement view and its merged value.
	view := blocks(m.ReduceInput(1, 0))
	want := merge(view, agg)

	// Generation 2: writers, locality readers, and the retirement of
	// generation 1 all run concurrently.
	m.Register(2, maps, reduces)
	for mt := 0; mt < maps; mt++ {
		wg.Add(1)
		go func(mt int) {
			defer wg.Done()
			m.PutMapOutput(2, mt, fmt.Sprintf("N%d", mt%2), colBlocksFor(t, mt+7, 80, reduces, agg))
		}(mt)
	}
	for r := 0; r < reduces; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.ReduceNodeBytes(2, r)
				m.BestReduceNode([]int{2}, r)
				complete(m, 2)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.RetireExcept([]int{2})
	}()
	wg.Wait()

	// Completed generation 2 merges identically across concurrent readers.
	results := make([][]rdd.Row, reduces*2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = merge(blocks(m.ReduceInput(2, i%reduces)), agg)
		}(i)
	}
	wg.Wait()
	for r := 0; r < reduces; r++ {
		if !reflect.DeepEqual(results[r], results[r+reduces]) {
			t.Fatalf("reduce %d: concurrent merges diverged", r)
		}
	}

	// The retained generation-1 view is untouched by retirement.
	if got := merge(view, agg); !reflect.DeepEqual(got, want) {
		t.Fatalf("pre-retirement view changed:\n got %v\nwant %v", got, want)
	}
}
