package lint_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"chopper/internal/lint"
)

// TestHeapBudgetMatchesSweep pins the committed heapbudget.json to a fresh
// sweep: the file must be byte-identical to what `chopperlint
// -write-budget` would emit, so a hot-path allocation change cannot land
// without regenerating (and thereby re-auditing) the budget.
func TestHeapBudgetMatchesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	prog := repoProgram(t)
	want, err := lint.HeapBudgetJSON(prog)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(prog.Loader.ModRoot, lint.HeapBudgetFile))
	if err != nil {
		t.Fatalf("committed budget missing (run `go run ./cmd/chopperlint -write-budget`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is out of date with the tree; run `go run ./cmd/chopperlint -write-budget`\n--- committed ---\n%s--- fresh sweep ---\n%s", lint.HeapBudgetFile, got, want)
	}
}

// TestStaleHeapSuppression pins the satellite requirement that the
// suppression audit covers all four heap-family rules: a lint:ignore
// naming one of them that matches no finding must be reported as stale.
func TestStaleHeapSuppression(t *testing.T) {
	diags := plantModule(t, "internal/exec", `package exec

//lint:ignore hotalloc the pass below used to allocate per wave
func a() int { return 1 }

//lint:ignore boxf64 the kernel below used to box its accumulator
func b() int { return 2 }

//lint:ignore genlife the slice below used to outlive its generation
func c() int { return 3 }

//lint:ignore prealloc the append below used to grow incrementally
func d() int { return 4 }
`, lint.Heap())
	rules := []string{"hotalloc", "boxf64", "genlife", "prealloc"}
	if len(diags) != len(rules) {
		t.Fatalf("want %d stale-suppression findings, got %v", len(rules), diags)
	}
	for i, rule := range rules {
		d := diags[i]
		if d.Rule != "suppression" || !strings.Contains(d.Message, rule) || !strings.Contains(d.Message, "stale") {
			t.Fatalf("finding %d: want stale suppression for %s, got %+v", i, rule, d)
		}
	}
}

// TestPlantedHeapViolations is the deliberate-break check from the issue,
// backing the ci.sh chopperlint gate: a boxed hook call planted inside a
// typed F64 region fires boxf64, and an arena column planted into a
// heap-lived field fires genlife, both with file:line positions.
func TestPlantedHeapViolations(t *testing.T) {
	t.Run("boxf64", func(t *testing.T) {
		out, ok := heapFindings(t, `package rdd

type Aggregator struct {
	MergeCombiners    func(a, b any) any
	MergeCombinersF64 func(a, b float64) float64
}

func merge(agg *Aggregator, a, b float64) float64 {
	if agg.MergeCombinersF64 != nil {
		t := agg.MergeCombinersF64(a, b)
		check := agg.MergeCombiners(a, b)
		_ = check
		return t
	}
	return 0
}
`)
		if !ok {
			t.Fatal("planted module failed to load")
		}
		if !strings.Contains(out, "boxf64") || !strings.Contains(out, "planted.go:11") {
			t.Fatalf("planted boxed F64 fallback not reported:\n%s", out)
		}
	})
	t.Run("genlife", func(t *testing.T) {
		out, ok := heapFindings(t, `package shuffle

type ColView struct {
	F64 []float64
}

type Manager struct {
	outputs [][]ColView
}

func (m *Manager) ReduceInput(reduce int) []ColView {
	return m.outputs[reduce]
}

type keeper struct {
	col []float64
}

func (k *keeper) retain(m *Manager, reduce int) {
	k.col = m.ReduceInput(reduce)[0].F64
}
`)
		if !ok {
			t.Fatal("planted module failed to load")
		}
		if !strings.Contains(out, "genlife") || !strings.Contains(out, "planted.go:20") {
			t.Fatalf("planted escaped arena column not reported:\n%s", out)
		}
	})
}

// heapGateSrc is a minimal hot root with exactly two make sites, used by
// the budget-gate tests below.
const heapGateSrc = `package exec

type Engine struct{}

func (e *Engine) computePass(n int) []int {
	a := make([]int, n)
	_ = a
	return make([]int, n)
}
`

// heapGateDiags plants heapGateSrc as internal/exec of a throwaway module
// alongside an optional heapbudget.json and runs hotalloc under a
// whole-program load — the exact configuration the CI gate sees.
func heapGateDiags(t *testing.T, budget string) []lint.Diagnostic {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module chopper\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if budget != "" {
		if err := os.WriteFile(filepath.Join(root, lint.HeapBudgetFile), []byte(budget), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(root, "internal", "exec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "planted.go"), []byte(heapGateSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := lint.NewProgram(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := prog.Package(dir)
	if err != nil {
		t.Fatal(err)
	}
	return lint.Run(pkg, []*lint.Analyzer{lint.HotAlloc})
}

// TestHeapBudgetGate exercises all three gate outcomes: a hot function
// with no budget entry fails, a new site over the committed count fails,
// a stale (too-generous) entry fails, and an exact entry passes.
func TestHeapBudgetGate(t *testing.T) {
	entry := func(makes int) string {
		return fmt.Sprintf(`{"note":"test","functions":{"(*chopper/internal/exec.Engine).computePass":{"make":%d}}}`, makes)
	}
	cases := []struct {
		name   string
		budget string
		want   string // "" means no findings
	}{
		{"missing-entry", `{"note":"test","functions":{}}`, "no heapbudget.json entry"},
		{"new-site", entry(1), "over the heapbudget.json budget"},
		{"stale-entry", entry(3), "stale heapbudget.json entry"},
		{"exact", entry(2), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := heapGateDiags(t, tc.budget)
			if tc.want == "" {
				if len(diags) != 0 {
					t.Fatalf("want clean gate, got %v", diags)
				}
				return
			}
			if len(diags) != 1 || !strings.Contains(diags[0].Message, tc.want) {
				t.Fatalf("want one finding containing %q, got %v", tc.want, diags)
			}
		})
	}
}

// TestProgramConcurrentRuleFamilies runs the guard, key, and heap families
// concurrently against one fresh lint.Program and checks the combined
// output is byte-identical to a sequential run on the shared one: the Fact
// cache must be safe under concurrent whole-program fact computation (this
// runs under -race in CI). The fresh Program starts with empty package and
// fact caches but shares the loader, so the standard library is not
// type-checked a second time.
func TestProgramConcurrentRuleFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	families := map[string][]*lint.Analyzer{
		"guard": lint.Guard(),
		"key":   lint.Key(),
		"heap":  lint.Heap(),
	}
	runFamily := func(prog *lint.Program, analyzers []*lint.Analyzer) (string, error) {
		dirs, err := prog.Loader.Match([]string{"./..."})
		if err != nil {
			return "", err
		}
		var diags []lint.Diagnostic
		for _, dir := range dirs {
			pkg, err := prog.Package(dir)
			if err != nil {
				return "", err
			}
			diags = append(diags, lint.Run(pkg, analyzers)...)
		}
		diags = lint.SortDiagnostics(diags)
		var b strings.Builder
		if err := lint.WriteText(&b, diags); err != nil {
			return "", err
		}
		return b.String(), nil
	}

	seqProg := repoProgram(t)
	sequential := map[string]string{}
	for name, fam := range families {
		out, err := runFamily(seqProg, fam)
		if err != nil {
			t.Fatal(err)
		}
		sequential[name] = out
	}

	conProg := lint.NewProgramFrom(seqProg.Loader)
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		concurrent = map[string]string{}
		errs       []error
	)
	for name, fam := range families {
		wg.Add(1)
		go func(name string, fam []*lint.Analyzer) {
			defer wg.Done()
			out, err := runFamily(conProg, fam)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			concurrent[name] = out
		}(name, fam)
	}
	wg.Wait()
	for _, err := range errs {
		t.Fatal(err)
	}
	for name := range families {
		if sequential[name] != concurrent[name] {
			t.Errorf("%s family diverges between sequential and concurrent runs\n--- sequential ---\n%s--- concurrent ---\n%s", name, sequential[name], concurrent[name])
		}
	}
}

// heapFindings plants src as one package of a throwaway module and runs
// the heap rule family over it under two pretend import paths — the exec
// hot roots and the shuffle cache contract — so every rule's package
// scoping is exercised regardless of what the fuzzer mutates the package
// clause into.
func heapFindings(t *testing.T, src string) (string, bool) {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module chopper\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "hot")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "planted.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, path := range []string{"chopper/internal/exec", "chopper/internal/rdd", "chopper/internal/shuffle"} {
		ld, err := lint.NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := ld.LoadDir(dir, path)
		if err != nil {
			return "", false
		}
		diags := lint.Run(pkg, lint.Heap())
		for i := range diags {
			diags[i].File = filepath.Base(diags[i].File)
		}
		fmt.Fprintf(&b, "## %s\n", path)
		if err := lint.WriteText(&b, diags); err != nil {
			t.Fatal(err)
		}
	}
	return b.String(), true
}

// FuzzHeapFacts throws arbitrary Go source at the heap-family pipeline —
// call-graph construction, hot-reachability, allocation-site and boxing
// enumeration, the F64 region scan, the lifetime taint fixpoint, and the
// prealloc shape match — and asserts no panics and byte-identical
// findings across two independent loads.
func FuzzHeapFacts(f *testing.F) {
	seeds := []string{
		`package exec

type Engine struct{ waves int }

func (e *Engine) computePass(names []string) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, "w:"+n)
	}
	defer func() { e.waves++ }()
	return out
}
`,
		`package rdd

type Aggregator struct {
	MergeValue    func(acc, v any) any
	MergeValueF64 func(acc, v float64) float64
}

func sum(agg *Aggregator, vals []float64) float64 {
	if agg.MergeValueF64 != nil {
		acc := 0.0
		var last any
		for _, v := range vals {
			acc = agg.MergeValueF64(acc, v)
			last = acc
		}
		_ = last
		return acc
	}
	return 0
}
`,
		`package shuffle

type ColView struct{ F64 []float64 }

type Manager struct{ outputs [][]ColView }

func (m *Manager) ReduceInput(reduce int) []ColView { return m.outputs[reduce] }

var last []ColView

func dump(m *Manager, reduce int, ch chan []ColView) {
	views := m.ReduceInput(reduce)
	last = views
	ch <- views
	go func() { _ = views }()
}
`,
		`package exec

func keys(byID map[int]string) []int {
	var ids []int
	for id := range byID {
		ids = append(ids, id)
	}
	return ids
}
`,
		"package exec\n\nfunc broken( {",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		first, ok := heapFindings(t, src)
		if !ok {
			return // unloadable input: nothing to check
		}
		second, _ := heapFindings(t, src)
		if first != second {
			t.Fatalf("nondeterministic findings:\n--- first ---\n%s--- second ---\n%s", first, second)
		}
	})
}
