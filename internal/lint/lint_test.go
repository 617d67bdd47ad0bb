package lint_test

import (
	"encoding/json"
	"flag"
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
// suppressed hits stay silent, clean files report nothing.
func TestGolden(t *testing.T) {
	root := moduleRoot(t)
	for _, tc := range goldenCases {
		t.Run(tc.dir, func(t *testing.T) {
			ld, err := lint.NewLoader(root)
			if err != nil {
				t.Fatal(err)
			}
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
// chopperlint suite, the chopperguard lock and durability contracts, the
// chopperkey key-flow rules and the chopperheap allocation rules — so `go
// test ./...` alone catches what the ci.sh gates enforce. One shared
// Program serves all four, as it does in chopperlint: the whole-program
// lockorder graph spans the scheduler/engine/shuffle packages instead of
// degrading to per-package scope.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	prog := repoProgram(t)
	for _, fam := range []struct {
		name      string
		analyzers []*lint.Analyzer
	}{
		{"lint", lint.All()},
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

// TestJSONOutput pins the machine-readable format.
func TestJSONOutput(t *testing.T) {
	diags := []lint.Diagnostic{{File: "x.go", Line: 3, Col: 9, Rule: "walltime", Message: "m"}}
	var b strings.Builder
	if err := lint.WriteJSON(&b, diags); err != nil {
		t.Fatal(err)
	}
	var back []lint.Diagnostic
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	if len(back) != 1 || back[0] != diags[0] {
		t.Fatalf("round-trip mismatch: %+v", back)
	}

	b.Reset()
	if err := lint.WriteJSON(&b, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != "[]" {
		t.Fatalf("empty finding set must serialize as [], got %q", b.String())
	}
}
