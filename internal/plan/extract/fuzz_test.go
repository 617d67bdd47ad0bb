package extract_test

import (
	"reflect"
	"testing"

	"chopper/internal/core"
	"chopper/internal/plan/verify"
	"chopper/internal/workloads"
)

// FuzzSymbolicExtract is the robustness contract of the symbolic
// evaluator: for any workload shape — fields zeroed, shrunk, negated,
// inflated — extraction either returns a report whose every job carries a
// well-formed, verifiable stage plan, or an ordinary error. It must never
// panic and never hang (the step cap bounds runaway loop bounds).
func FuzzSymbolicExtract(f *testing.F) {
	f.Add(uint8(0), 1, int64(21_800_000_000), 300, uint16(0), int16(0))
	f.Add(uint8(1), 6, int64(27_600_000_000), 300, uint16(1), int16(7))
	f.Add(uint8(2), 8, int64(34_500_000_000), 150, uint16(3), int16(0))
	f.Add(uint8(3), 2, int64(12_000_000_000), 7, uint16(0xff), int16(-3))
	f.Add(uint8(0), 0, int64(0), 0, uint16(0xffff), int16(63))
	// Key-flow corpus: shapes that keep the KeyFacts tracker's hardest
	// paths hot. sql joins re-keyed tables (join-after-rekey), pagerank
	// chains mapValues across a cogroup (partitioner preservation), pca
	// reduces under a constant key (cardinality collapse).
	f.Add(uint8(2), 4, int64(34_500_000_000), 96, uint16(0), int16(0))
	f.Add(uint8(3), 4, int64(12_000_000_000), 48, uint16(2), int16(5))
	f.Add(uint8(1), 4, int64(27_600_000_000), 64, uint16(0), int16(0))

	names := []string{"kmeans", "pca", "sql", "pagerank"}
	f.Fuzz(func(t *testing.T, which uint8, shrink int, inputBytes int64, par int, fieldSel uint16, fieldVal int16) {
		w, err := workloads.ByName(names[int(which)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		workloads.Shrink(w, shrink)
		perturbIntFields(w, fieldSel, int(fieldVal))
		// Bound the partition count: plan building is cheap at any width,
		// but the verifier's byte estimates are linear in stage count, not
		// partitions, so this only keeps the numbers printable.
		par %= 5000

		ex := sharedExtractor(t)
		rep, err := ex.Extract(w, inputBytes, par)
		if err != nil {
			return // unextractable shapes are allowed; panics are not
		}
		// Structural invariants only (acyclicity, shuffle boundaries,
		// co-partitioning, partitioner compatibility): resource budgets are
		// a property of the fuzzed parallelism, not of plan correctness.
		lim := verify.Limits{}
		for i, j := range rep.Jobs {
			if j.Plan == nil || len(j.Topo) == 0 {
				t.Fatalf("job %d (%s): empty plan", i, j.Action)
			}
			if j.Topo[len(j.Topo)-1] != j.Plan || !j.Plan.IsResult {
				t.Fatalf("job %d (%s): result stage is not last in topo", i, j.Action)
			}
			if len(j.Keys) == 0 {
				t.Fatalf("job %d (%s): extraction succeeded but carries no key facts", i, j.Action)
			}
			for _, v := range verify.Stages(j.Plan, j.Topo, lim) {
				t.Errorf("job %d (%s): extracted plan violates invariants: %s", i, j.Action, v)
			}
		}
	})
}

// perturbIntFields rewrites the workload's exported int fields selected by
// the fieldSel bitmask to (bounded) fieldVal, exercising degenerate loop
// bounds and dataset shapes.
func perturbIntFields(w workloads.Workload, fieldSel uint16, fieldVal int) {
	rv := reflect.ValueOf(w).Elem()
	bit := 0
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if f.Kind() != reflect.Int || !f.CanSet() {
			continue
		}
		if fieldSel&(1<<bit) != 0 {
			f.SetInt(int64(fieldVal % 64))
		}
		bit++
	}
}

// TestFuzzSeedsPass keeps the fuzz seeds green under plain `go test`.
func TestFuzzSeedsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module")
	}
	w, err := workloads.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	w.(*workloads.KMeans).InitRounds = -1
	w.(*workloads.KMeans).Iterations = 0
	rep, err := sharedExtractor(t).Extract(w, 1, core.DefaultParallelism)
	if err != nil {
		t.Fatalf("degenerate kmeans should still extract (no init/Lloyd jobs): %v", err)
	}
	// 2 cached counts + wssse + dominant-count remain.
	if len(rep.Jobs) != 4 {
		t.Fatalf("degenerate kmeans: got %d jobs, want 4", len(rep.Jobs))
	}
}
