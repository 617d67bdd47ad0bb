// Command chopperheap runs the static allocation-site and buffer-lifetime
// analysis family (internal/lint's Heap rules) over the module and exits
// non-zero on any finding.
//
// The four rules are the memory contract of the wave hot path:
//
//	hotalloc — allocation sites (make, append growth, map literals,
//	           string concatenation, closure heap captures, numeric
//	           interface boxing) in functions statically reachable from
//	           the declared hot-path roots, gated against the committed
//	           per-function budget in heapbudget.json: a new site fails
//	           deterministically
//	boxf64   — the typed F64 kernel fast paths stay box-free: no boxed
//	           hook fallbacks or in-loop float64→interface boxing inside
//	           a CreateF64/MergeValueF64/MergeCombinersF64-guarded region
//	genlife  — arena views derived from shuffle.Manager.ReduceInput must
//	           not escape into heap-lived structures (struct fields,
//	           channels, goroutine captures) without a deep copy; they
//	           are only valid until the shuffle generation retires
//	prealloc — append-in-loop growth whose capacity is statically
//	           derivable from the ranged collection must pre-size
//
// Usage:
//
//	chopperheap [-json] [-rules=<comma-list>] [packages]
//	chopperheap -write-budget
//
// Packages default to ./... relative to the enclosing module root;
// diagnostics are scoped to the hot-path packages (internal/dag,
// internal/exec, internal/rdd, internal/shuffle). The -json flag emits
// findings in the unified wire schema (tool/rule/pos/msg/severity).
// -write-budget regenerates heapbudget.json at the module root from a
// fresh sweep — run it after auditing any hot-path allocation change and
// commit the result. Exit status: 0 clean, 1 findings, 2 load/parse or
// usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"chopper/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics in the unified wire-JSON schema")
	rules := flag.String("rules", "", "comma-separated rule names to run (default: the heap family)")
	writeBudget := flag.Bool("write-budget", false, "regenerate heapbudget.json at the module root from a fresh sweep and exit")
	flag.Parse()
	if *writeBudget {
		os.Exit(runWriteBudget())
	}
	os.Exit(run(flag.Args(), *jsonOut, *rules))
}

// selectAnalyzers resolves the -rules flag value against the heap family
// (and, through ByName, any other suite's rule asked for explicitly).
func selectAnalyzers(rules string) ([]*lint.Analyzer, error) {
	if rules == "" {
		return lint.Heap(), nil
	}
	var names []string
	for _, n := range strings.Split(rules, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-rules lists no rule names")
	}
	return lint.ByName(names)
}

func program() (*lint.Program, string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, "", err
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return nil, "", err
	}
	prog, err := lint.NewProgram(root)
	if err != nil {
		return nil, "", err
	}
	return prog, root, nil
}

func run(patterns []string, jsonOut bool, rules string) int {
	analyzers, err := selectAnalyzers(rules)
	if err != nil {
		return fail(err)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// One shared Program: the whole-program heap fact (call-graph
	// reachability, allocation-site enumeration, the budget gate) is
	// computed once and shared by every file's rule run.
	prog, root, err := program()
	if err != nil {
		return fail(err)
	}
	dirs, err := prog.Loader.Match(patterns)
	if err != nil {
		return fail(err)
	}
	if len(dirs) == 0 {
		return fail(fmt.Errorf("no packages match %v", patterns))
	}

	var diags []lint.Diagnostic
	for _, dir := range dirs {
		pkg, err := prog.Package(dir)
		if err != nil {
			return fail(err)
		}
		diags = append(diags, lint.Run(pkg, analyzers)...)
	}
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil {
			diags[i].File = rel
		}
	}
	diags = lint.SortDiagnostics(diags)

	if jsonOut {
		if err := lint.WriteJSONTool(os.Stdout, "chopperheap", diags); err != nil {
			return fail(err)
		}
	} else if err := lint.WriteText(os.Stdout, diags); err != nil {
		return fail(err)
	}
	if len(diags) > 0 {
		if !jsonOut {
			fmt.Fprintf(os.Stderr, "chopperheap: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// runWriteBudget recomputes the hot-path allocation-site budget and
// commits it to heapbudget.json at the module root.
func runWriteBudget() int {
	prog, root, err := program()
	if err != nil {
		return fail(err)
	}
	data, err := lint.HeapBudgetJSON(prog)
	if err != nil {
		return fail(err)
	}
	path := filepath.Join(root, lint.HeapBudgetFile)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "chopperheap: wrote %s\n", path)
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "chopperheap:", err)
	return 2
}
