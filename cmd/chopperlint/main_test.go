package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"chopper/internal/lint"
)

// plantedSources holds one violation per rule family, each at a package
// path its family is scoped to: a wall-clock read in the simulator
// (determinism), a constant-key shuffle in a workload (key), and an arena
// column kept past its shuffle generation (heap). The guard family's hit
// is the lockcontract fixture, planted by plantModule. internal/rdd is the
// minimal stub the workload needs to type-check.
var plantedSources = map[string]string{
	"internal/dag/planted.go": `package dag

import "time"

func Bad() time.Time { return time.Now() }
`,
	"internal/workloads/planted.go": `package workloads

import "chopper/internal/rdd"

func PlantedGlobalSum(ctx *rdd.Context) *rdd.RDD {
	rows := ctx.Generate("rows", 0, 1024, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: 0, V: 1.0}}
	})
	return rows.ReduceByKey(func(a, b any) any { return a }, 8)
}
`,
	"internal/rdd/rdd.go": `package rdd

type Row = any

type Pair struct{ K, V any }

type Context struct{}

func (c *Context) Generate(name string, n int, logicalBytes int64, gen func(split, total int) []Row) *RDD {
	return &RDD{}
}

type RDD struct{}

func (r *RDD) ReduceByKey(f func(a, b any) any, n int) *RDD { return r }
`,
	"internal/shuffle/planted.go": `package shuffle

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
`,
}

// plantedFindings are the module-relative positions and rules one run over
// the planted module must report, in output order.
var plantedFindings = []string{
	"internal/core/hit.go:20:11: lockcontract",
	"internal/core/hit.go:26:4: lockcontract",
	"internal/dag/planted.go:5:31: walltime",
	"internal/shuffle/planted.go:20:2: genlife",
	"internal/workloads/planted.go:9:9: constkey",
}

// writeModule writes files (module-relative path → source) into a fresh
// module named chopper and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module chopper\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// plantModule writes the planted module: plantedSources plus the
// lockcontract fixture's hits as package internal/core.
func plantModule(t *testing.T) string {
	t.Helper()
	hit, err := os.ReadFile("../../internal/lint/testdata/lockcontract/hit.go")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"internal/core/hit.go": strings.Replace(string(hit), "package lcfix", "package core", 1),
	}
	for rel, src := range plantedSources {
		files[rel] = src
	}
	return writeModule(t, files)
}

// runLint runs the driver over the module at root with the given flags and
// returns its exit status, stdout and stderr.
func runLint(t *testing.T, root string, jsonOut bool, rules string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(root, nil, jsonOut, rules, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// positionsAndRules strips the messages off compiler-style finding lines.
func positionsAndRules(text string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if parts := strings.SplitN(line, ": ", 3); len(parts) == 3 {
			out = append(out, parts[0]+": "+parts[1])
		}
	}
	return out
}

// TestOneRunReportsEveryFamily is the driver's deliberate-break check: a
// module with one planted violation per rule family fails one run with
// every finding at a module-relative file:line:col.
func TestOneRunReportsEveryFamily(t *testing.T) {
	root := plantModule(t)
	code, stdout, stderr := runLint(t, root, false, "")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr)
	}
	if got := positionsAndRules(stdout); !slices.Equal(got, plantedFindings) {
		t.Fatalf("findings:\n%s\nwant (position: rule):\n%s", stdout, strings.Join(plantedFindings, "\n"))
	}
	if want := "chopperlint: 5 finding(s)\n"; stderr != want {
		t.Fatalf("stderr %q, want %q", stderr, want)
	}

	// -json moves the same lines to stderr and writes the wire array to
	// stdout.
	code, stdout, stderr = runLint(t, root, true, "")
	if code != 1 {
		t.Fatalf("-json: exit %d, want 1; stderr:\n%s", code, stderr)
	}
	var wire []lint.WireDiagnostic
	if err := json.Unmarshal([]byte(stdout), &wire); err != nil {
		t.Fatalf("-json stdout is not a wire array: %v\n%s", err, stdout)
	}
	var got []string
	for _, w := range wire {
		if w.Tool != "chopperlint" || w.Severity != "error" {
			t.Fatalf("unexpected wire finding %+v", w)
		}
		got = append(got, w.Pos+": "+w.Rule)
	}
	if !slices.Equal(got, plantedFindings) {
		t.Fatalf("-json findings %v, want %v", got, plantedFindings)
	}
	if lines := positionsAndRules(stderr); !slices.Equal(lines, plantedFindings) {
		t.Fatalf("-json stderr:\n%s\nwant the finding lines and the count", stderr)
	}
}

// TestRulesFlag checks -rules narrows a run to the named rules, and that
// an unknown name is a usage error (exit 2) rather than a clean run.
func TestRulesFlag(t *testing.T) {
	root := plantModule(t)
	code, stdout, _ := runLint(t, root, false, "walltime, genlife")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	want := []string{plantedFindings[2], plantedFindings[3]}
	if got := positionsAndRules(stdout); !slices.Equal(got, want) {
		t.Fatalf("-rules=walltime,genlife reported:\n%s\nwant %v", stdout, want)
	}
	for _, rules := range []string{"nosuchrule", "walltime,nosuchrule", ","} {
		if code, _, stderr := runLint(t, root, false, rules); code != 2 {
			t.Fatalf("-rules=%q: exit %d, want 2; stderr:\n%s", rules, code, stderr)
		}
	}
}

// TestCleanModule checks a module with nothing to report exits 0 and, under
// -json, writes an empty array.
func TestCleanModule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/dag/clean.go": "package dag\n\nfunc Width(n int) int { return n * 2 }\n",
	})
	if code, stdout, stderr := runLint(t, root, false, ""); code != 0 || stdout != "" || stderr != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 0 and no output", code, stdout, stderr)
	}
	if code, stdout, _ := runLint(t, root, true, ""); code != 0 || strings.TrimSpace(stdout) != "[]" {
		t.Fatalf("-json: exit %d, stdout %q; want 0 and []", code, stdout)
	}
}
