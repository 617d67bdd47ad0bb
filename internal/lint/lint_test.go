package lint_test

import (
	"encoding/json"
	"flag"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
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

// surfaceExempt are the exported *rdd.RDD and *rdd.Context methods kept
// without a non-test caller, each for the test that needs it.
var surfaceExempt = map[string]bool{
	"RDD.Map":        true, // FuzzEngineMatchesOracle draws it
	"RDD.FlatMap":    true, // FuzzEngineMatchesOracle draws it
	"RDD.GroupByKey": true, // FuzzEngineMatchesOracle draws it
}

// TestRDDSurfaceHasCallers fails for every exported method of *rdd.RDD
// and *rdd.Context that no non-test code in the module reaches: a use
// counts when it sits outside every such method, or inside one that is
// itself reached (so a method only an unused one calls is unused too).
// The RDD layer carries no Spark surface that nothing runs. String is
// exempt as fmt.Stringer's method, and surfaceExempt lists the rest.
func TestRDDSurfaceHasCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	const rddPath = "chopper/internal/rdd"
	prog := repoProgram(t)
	// methodKey names an exported method of RDD or Context, "" for
	// anything else.
	methodKey := func(fn *types.Func) string {
		sig := fn.Type().(*types.Signature)
		if fn.Pkg() == nil || fn.Pkg().Path() != rddPath || sig.Recv() == nil || !fn.Exported() {
			return ""
		}
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || (named.Obj().Name() != "RDD" && named.Obj().Name() != "Context") {
			return ""
		}
		return named.Obj().Name() + "." + fn.Name()
	}

	rddPkg, err := prog.PackageByPath(rddPath)
	if err != nil {
		t.Fatal(err)
	}
	type body struct {
		key        string
		file       string
		start, end int
	}
	var bodies []body
	for _, f := range rddPkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := rddPkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if key := methodKey(fn); key != "" && key != "RDD.String" {
				start, end := rddPkg.Fset.Position(fd.Body.Pos()), rddPkg.Fset.Position(fd.Body.End())
				bodies = append(bodies, body{key, start.Filename, start.Offset, end.Offset})
			}
		}
	}
	if len(bodies) < 10 {
		t.Fatalf("found only %d exported RDD and Context methods", len(bodies))
	}
	// enclosing names the method whose body holds pos, "" for none.
	enclosing := func(pos token.Position) string {
		for _, b := range bodies {
			if pos.Filename == b.file && pos.Offset >= b.start && pos.Offset < b.end {
				return b.key
			}
		}
		return ""
	}

	dirs, err := prog.Loader.Match([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	callers := map[string]map[string]bool{} // method -> enclosing method of each use
	for _, dir := range dirs {
		pkg, err := prog.Package(dir)
		if err != nil {
			t.Fatal(err)
		}
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			if key := methodKey(fn); key != "" {
				if callers[key] == nil {
					callers[key] = map[string]bool{}
				}
				callers[key][enclosing(pkg.Fset.Position(id.Pos()))] = true
			}
		}
	}
	// reach returns the methods reached from code outside every method
	// and from the seeds.
	reach := func(seeds map[string]bool) map[string]bool {
		live := maps.Clone(seeds)
		for changed := true; changed; {
			changed = false
			for key, from := range callers {
				for c := range from {
					if !live[key] && (c == "" || c != key && live[c]) {
						live[key], changed = true, true
					}
				}
			}
		}
		return live
	}
	used, live := reach(map[string]bool{}), reach(surfaceExempt)
	for _, b := range bodies {
		switch {
		case !live[b.key]:
			t.Errorf("rdd method %s has no caller outside tests: delete it, or exempt it naming the test that needs it", b.key)
		case used[b.key] && surfaceExempt[b.key]:
			t.Errorf("rdd method %s is exempt but has a caller: drop the exemption", b.key)
		}
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
