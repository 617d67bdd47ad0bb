package lint_test

import (
	"encoding/json"
	"flag"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"chopper/internal/lint"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenCases pair each analyzer with its fixture directory and the import
// path the fixtures pretend to live at (the path-scoped rules only fire
// inside their package lists).
var goldenCases = []struct {
	analyzer *lint.Analyzer
	dir      string
	path     string
}{
	{lint.WallTime, "walltime", "chopper/internal/dag"},
	{lint.GlobalRand, "globalrand", "chopper/internal/workloads"},
	{lint.MapOrder, "maporder", "chopper/internal/core"},
	{lint.DroppedErr, "droppederr", "chopper/internal/exec"},
	{lint.ClosureCapture, "closurecapture", "chopper/internal/workloads"},
	{lint.SharedEscape, "sharedescape", "chopper/internal/exec"},
	{lint.LockOrder, "lockorder", "chopper/internal/exec"},
	{lint.NilFlow, "nilflow", "chopper/internal/dag"},
	{lint.CtxLeak, "ctxleak", "chopper/internal/exec"},
	{lint.LockContract, "lockcontract", "chopper/internal/core"},
	{lint.CopyEscape, "copyescape", "chopper/internal/core"},
	{lint.JournalOrder, "journalorder", "chopper/internal/core"},
	{lint.Tocou, "tocou", "chopper/internal/core"},
	{lint.KeyDriftRule, "keydrift", "chopper/internal/workloads"},
	{lint.ShuffleWaste, "shufflewaste", "chopper/internal/workloads"},
	{lint.ConstKey, "constkey", "chopper/internal/workloads"},
	{lint.HotAlloc, "hotalloc", "chopper/internal/exec"},
	{lint.BoxF64, "boxf64", "chopper/internal/rdd"},
	{lint.GenLife, "genlife", "chopper/internal/shuffle"},
	{lint.PreAlloc, "prealloc", "chopper/internal/exec"},
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestGolden checks each analyzer against its fixture package: hits fire,
// suppressed hits stay silent, clean files report nothing. One loader
// serves every fixture: it caches only the packages fixtures import (the
// standard library and real module packages), never a fixture itself.
func TestGolden(t *testing.T) {
	ld, err := lint.NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenCases {
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.dir)
			pkg, err := ld.LoadDir(dir, tc.path)
			if err != nil {
				t.Fatal(err)
			}
			diags := lint.Run(pkg, []*lint.Analyzer{tc.analyzer})
			for i := range diags {
				diags[i].File = filepath.Base(diags[i].File)
			}
			var b strings.Builder
			if err := lint.WriteText(&b, diags); err != nil {
				t.Fatal(err)
			}
			got := b.String()

			golden := filepath.Join(dir, "expected.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// plantModule writes a throwaway module with one file at the given package
// path and returns the analyzer findings for it.
func plantModule(t *testing.T, relDir, src string, analyzers []*lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module chopper\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, relDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "planted.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ld, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := ld.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return lint.Run(pkg, analyzers)
}

// TestPlantedViolations is the acceptance check from the issue: a planted
// time.Now in internal/dag and a bare rand.Intn in internal/core must be
// reported with file:line positions.
func TestPlantedViolations(t *testing.T) {
	t.Run("walltime-in-dag", func(t *testing.T) {
		diags := plantModule(t, "internal/dag", `package dag

import "time"

func Bad() time.Time { return time.Now() }
`, []*lint.Analyzer{lint.WallTime})
		if len(diags) != 1 {
			t.Fatalf("want 1 walltime finding, got %v", diags)
		}
		d := diags[0]
		if d.Rule != "walltime" || d.Line != 5 || !strings.HasSuffix(d.File, "planted.go") {
			t.Fatalf("unexpected diagnostic: %+v", d)
		}
	})
	t.Run("globalrand-in-core", func(t *testing.T) {
		diags := plantModule(t, "internal/core", `package core

import "math/rand"

func Bad() int { return rand.Intn(7) }
`, []*lint.Analyzer{lint.GlobalRand})
		if len(diags) != 1 {
			t.Fatalf("want 1 globalrand finding, got %v", diags)
		}
		if d := diags[0]; d.Rule != "globalrand" || d.Line != 5 {
			t.Fatalf("unexpected diagnostic: %+v", d)
		}
	})
	t.Run("walltime-scope", func(t *testing.T) {
		// The same wall-clock read outside the simulation packages is legal.
		diags := plantModule(t, "internal/trace", `package trace

import "time"

func OK() time.Time { return time.Now() }
`, []*lint.Analyzer{lint.WallTime})
		if len(diags) != 0 {
			t.Fatalf("walltime must not apply outside simulation packages, got %v", diags)
		}
	})
}

// repoProgram returns the one whole-module load the repo-wide tests share.
// Type-checking the module dominates their cost, and a Program caches every
// package and whole-program fact, so each further sweep over it is cheap.
func repoProgram(t *testing.T) *lint.Program {
	t.Helper()
	repoOnce.Do(func() {
		root, err := lint.FindModuleRoot(".")
		if err == nil {
			repoProg, err = lint.NewProgram(root)
		}
		repoErr = err
	})
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoProg
}

var (
	repoOnce sync.Once
	repoProg *lint.Program
	repoErr  error
)

// runOverRepo runs analyzers over every package of prog's module.
func runOverRepo(t *testing.T, prog *lint.Program, analyzers []*lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	dirs, err := prog.Loader.Match([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("suspiciously few packages matched: %v", dirs)
	}
	var diags []lint.Diagnostic
	for _, dir := range dirs {
		pkg, err := prog.Package(dir)
		if err != nil {
			t.Fatal(err)
		}
		diags = append(diags, lint.Run(pkg, analyzers)...)
	}
	return diags
}

// TestRepoIsClean runs every rule family over the real tree — the
// determinism suite, the guard lock and durability contracts, the key-flow
// rules and the heap allocation rules — so `go test ./...` alone catches
// what the ci.sh chopperlint gate enforces. One shared Program serves all
// four, as it does in chopperlint: the whole-program lockorder graph spans
// the scheduler/engine/shuffle packages instead of degrading to
// per-package scope.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	prog := repoProgram(t)
	for _, fam := range []struct {
		name      string
		analyzers []*lint.Analyzer
	}{
		{"lint", lint.Determinism()},
		{"guard", lint.Guard()},
		{"key", lint.Key()},
		{"heap", lint.Heap()},
	} {
		t.Run(fam.name, func(t *testing.T) {
			for _, d := range runOverRepo(t, prog, fam.analyzers) {
				t.Errorf("%s", d)
			}
		})
	}
}

// rentExempt lists the exported functions and methods under internal/
// that no production code reaches, each with the reason it stays. An entry
// whose reason starts "bench/-only" is reached only from the nested bench/
// module and names the probe that calls it; every other entry names the
// test that needs it, and seeds reachability as if that test were a
// caller.
var rentExempt = map[string]string{
	"rdd.RDD.Map":                       "FuzzEngineMatchesOracle (exec) draws it",
	"rdd.RDD.FlatMap":                   "FuzzEngineMatchesOracle (exec) draws it",
	"rdd.RDD.GroupByKey":                "FuzzEngineMatchesOracle (exec) draws it",
	"rdd.NewLocalRunner":                "FuzzEngineMatchesOracle (exec) runs it as the oracle",
	"rdd.NewRangePartitionerWithBounds": "TestRejectsBadRangeBounds (plan/verify) and TestReduceInputOrderedByMapTask (shuffle) pick the bounds",
	"workloads.RecordedForTest":         "TestReplayedRunsPinned (workloads) and TestWorkloadsLeaveCachedPartitionsAlone (exec) read the source memo",
	"metrics.Histogram.Count":           "TestRetryOn429ThenSuccess and TestRetryExhaustionDrops (loadgen) count the recorded latencies",
	"trace.Log.Write":                   "TestResultsAndTracesPinned and TestReplayedRunsPinned (workloads) hash its bytes; TestDeterministicTrace (experiments) diffs them",
	"experiments.ColdStartSeeding":      "TestColdStartSeeding produces EXPERIMENTS.md's cold-start table; it carries core.Optimizer.SeedConfig and extract.Report.SeedHints",
	"experiments.ColdStartRow.Speedup":  "TestColdStartSeeding",

	"rdd.PartitionPairsCol":           "bench/-only: the rdd.partition_* probes and the shuffle.* probes' map outputs",
	"rdd.MergeReduceColN":             "bench/-only: rdd.merge_int_ns_row, rdd.merge_any_ns_row, rdd.merge_alloc_b_row",
	"rdd.ColBuckets.BucketInto":       "bench/-only: the rdd.merge_* probes",
	"rdd.ColBuckets.LogicalBytes":     "bench/-only: the shuffle.* probes size their map outputs",
	"shuffle.ReduceView.BlockInto":    "bench/-only: shuffle.reduce_view_us_r300 and _r900",
	"shuffle.ReduceView.Len":          "bench/-only: shuffle.reduce_view_us_r300 and _r900",
	"shuffle.Manager.ReduceNodeBytes": "bench/-only: shuffle.node_bytes_us_r300 and _r900",
	"shuffle.Manager.BestReduceNode":  "bench/-only: shuffle.best_node_us_r900",
	"model.StageModels.MinimizeCost":  "bench/-only: model.minimize_us",
	"service.Server.Handler":          "bench/-only: the service.*_handler_us and service.metrics_scrape_us probes",
	"simclock.New":                    "bench/-only: simclock.event_ns",
	"simclock.Clock.Schedule":         "bench/-only: simclock.event_ns",
	"simclock.Clock.Run":              "bench/-only: simclock.event_ns",
	"simclock.Clock.Step":             "bench/-only: simclock.event_ns, through Clock.Run",
}

// TestExportedFuncsHaveCallers fails for every exported function and
// method declared under internal/ that no non-test code reaches. A use
// counts when it sits outside every such function (in an unexported one,
// a package-level initializer, or a package outside internal/: the root,
// api, client, cmd/ and examples/), or inside one that is itself reached,
// so a function only an unreached one calls is unreached too. Uses from
// bench/ form their own class: a name only they reach must be exempt as
// bench/-only. Methods that implement an interface (types.Implements over
// every interface the module sees) are exempt, as dynamic dispatch can
// reach them; rentExempt lists the rest, and an exempt name that gains a
// production caller fails too.
func TestExportedFuncsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	const internalPrefix, benchPrefix = "chopper/internal/", "chopper/bench"
	prog := repoProgram(t)
	dirs, err := prog.Loader.Match([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]*lint.Package, len(dirs))
	for i, dir := range dirs {
		if pkgs[i], err = prog.Package(dir); err != nil {
			t.Fatal(err)
		}
	}

	// funcKey names an exported function or concrete method declared
	// under internal/ ("rdd.RDD.Map", "experiments/driver.Map"), "" for
	// anything else.
	funcKey := func(fn *types.Func) string {
		fn = fn.Origin()
		if fn.Pkg() == nil || !fn.Exported() {
			return ""
		}
		path, ok := strings.CutPrefix(fn.Pkg().Path(), internalPrefix)
		if !ok {
			return ""
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return path + "." + fn.Name()
		}
		named, ok := types.Unalias(derefType(recv.Type())).(*types.Named)
		if !ok || types.IsInterface(named) {
			return ""
		}
		return path + "." + named.Obj().Name() + "." + fn.Name()
	}

	// One pass over every declaration: declared holds each checked
	// function, callers the enclosing function of each use ("" for
	// production code outside every checked function, benchPrefix for
	// bench/).
	declared := map[string]*types.Func{}
	callers := map[string]map[string]bool{}
	for _, pkg := range pkgs {
		outside := ""
		if strings.HasPrefix(pkg.Path, benchPrefix) {
			outside = benchPrefix
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				from := outside
				if fd, ok := d.(*ast.FuncDecl); ok && outside == "" {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						if key := funcKey(fn); key != "" {
							declared[key], from = fn, key
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
						if key := funcKey(fn); key != "" {
							if callers[key] == nil {
								callers[key] = map[string]bool{}
							}
							callers[key][from] = true
						}
					}
					return true
				})
			}
		}
	}
	if len(declared) < 400 {
		t.Fatalf("found only %d exported functions under internal/", len(declared))
	}

	// reach returns the functions reached from the given roots: caller
	// classes and seed functions.
	reach := func(roots ...string) map[string]bool {
		live := map[string]bool{}
		for _, r := range roots {
			live[r] = true
		}
		for changed := true; changed; {
			changed = false
			for key, from := range callers {
				for c := range from {
					if !live[key] && c != key && live[c] {
						live[key], changed = true, true
					}
				}
			}
		}
		return live
	}
	// Methods that implement an interface are reached by dynamic dispatch:
	// they are roots, and never need an exemption.
	implements := interfaceMethods(pkgs)
	dispatched := []string{""}
	for key, fn := range declared {
		if implements(fn) {
			dispatched = append(dispatched, key)
		}
	}
	seeds := slices.Clone(dispatched)
	for key, why := range rentExempt {
		if declared[key] == nil {
			t.Errorf("exempt %s is not an exported function under internal/: drop the exemption", key)
		}
		if !strings.HasPrefix(why, "bench/-only") {
			seeds = append(seeds, key)
		}
	}
	prod := reach(dispatched...)
	tested := reach(seeds...)
	all := reach(append(seeds, benchPrefix)...)

	keys := make([]string, 0, len(declared))
	for key := range declared {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		why, exempt := rentExempt[key]
		benchOnly := strings.HasPrefix(why, "bench/-only")
		switch {
		case prod[key] && exempt:
			t.Errorf("%s is exempt but has a production caller or implements an interface: drop the exemption", key)
		case !all[key]:
			t.Errorf("%s has no caller outside tests: delete it, move it into a _test.go file, or exempt it naming the test that needs it", key)
		case !tested[key] && !benchOnly:
			t.Errorf("%s is reached only from bench/: exempt it as bench/-only, naming the probe", key)
		case tested[key] && benchOnly:
			t.Errorf("%s is exempt as bench/-only but is reached without bench/: drop the exemption", key)
		}
	}
}

// derefType strips one pointer.
func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// interfaceMethods returns a predicate reporting whether a method (or its
// pointer receiver's method set) implements some interface carrying a
// method of the same name. Loader type-checks each loaded package afresh
// but resolves its imports once, so the predicate works on the imported
// copies: there a type and every interface share one identity. The
// interfaces are every named one the module declares and every exported
// one of the packages it imports, plus error.
func interfaceMethods(pkgs []*lint.Package) func(*types.Func) bool {
	universe := map[string]*types.Package{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if universe[imp.Path()] == nil {
				universe[imp.Path()] = imp
				visit(imp)
			}
		}
	}
	var fresh []*types.Package
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Defs {
			if obj != nil && obj.Pkg() != nil {
				fresh = append(fresh, obj.Pkg())
				visit(obj.Pkg())
				break
			}
		}
	}
	for _, p := range fresh { // a package nothing imports has only its fresh copy
		if universe[p.Path()] == nil {
			universe[p.Path()] = p
		}
	}
	byName := map[string][]*types.Interface{}
	addIface := func(iface *types.Interface) {
		for i := range iface.NumMethods() {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for path, p := range universe {
		module := path == "chopper" || strings.HasPrefix(path, "chopper/")
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !(module || tn.Exported()) {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				addIface(iface)
			}
		}
	}
	return func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		named := types.Unalias(derefType(recv.Type())).(*types.Named)
		p := universe[fn.Pkg().Path()]
		tn, ok := p.Scope().Lookup(named.Obj().Name()).(*types.TypeName)
		if !ok || named.TypeParams().Len() > 0 {
			return false
		}
		for _, iface := range byName[fn.Name()] {
			if types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface) {
				return true
			}
		}
		return false
	}
}

// TestJSONOutput pins the machine-readable format chopperlint -json
// writes: the wire array round-trips, and no findings is [].
func TestJSONOutput(t *testing.T) {
	diags := []lint.Diagnostic{{File: "x.go", Line: 3, Col: 9, Rule: "walltime", Message: "m"}}
	var b strings.Builder
	if err := lint.WriteJSONTool(&b, "chopperlint", diags); err != nil {
		t.Fatal(err)
	}
	var back []lint.WireDiagnostic
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	if len(back) != 1 || back[0] != lint.Wire("chopperlint", diags[0]) {
		t.Fatalf("round-trip mismatch: %+v", back)
	}

	b.Reset()
	if err := lint.WriteJSONTool(&b, "chopperlint", nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Fatalf("empty finding set must serialize as [], got %q", b.String())
	}
}
