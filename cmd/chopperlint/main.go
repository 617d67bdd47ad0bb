// Command chopperlint is the repository's static-analysis gate. It loads
// the module once (one lint.Program) and runs the four rule families of
// internal/lint over each matched non-test package in one pass:
//
//	determinism — walltime, globalrand, maporder, droppederr,
//	              closurecapture, sharedescape, lockorder, nilflow, ctxleak
//	guard       — lockcontract, copyescape, journalorder, tocou: the lock
//	              contracts and durability protocol of core, fleet and
//	              service
//	key         — keydrift, shufflewaste, constkey: key provenance through
//	              RDD pipelines
//	heap        — hotalloc, boxf64, genlife, prealloc: allocation sites and
//	              buffer lifetimes on the wave hot path, with hotalloc
//	              gated against the committed heapbudget.json
//
// The suppression audit runs over every lint:ignore directive alongside.
//
// Usage:
//
//	chopperlint [-json] [-rules=<comma-list>] [packages]
//	chopperlint -write-budget
//
// Packages default to ./... relative to the enclosing module root; each
// family reports only on the packages it is scoped to. -rules restricts
// the run to a comma-separated subset of rule names (default: all). The
// -json flag writes the findings to stdout as one array in the unified
// wire schema shared by the gate CLIs (tool/rule/pos/msg/severity) and
// moves the compiler-style lines to stderr, so one run both gates and
// produces the artifact. -write-budget regenerates heapbudget.json at the
// module root from a fresh sweep and exits: run it after auditing a
// hot-path allocation change, and commit the result. Exit status: 0 clean,
// 1 findings, 2 load/parse or usage error (an unknown rule name is a usage
// error).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"chopper/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "write findings to stdout as one wire-JSON array; human-readable lines go to stderr")
	rules := flag.String("rules", "", "comma-separated rule names to run (default: all)")
	writeBudget := flag.Bool("write-budget", false, "regenerate heapbudget.json at the module root from a fresh sweep and exit")
	flag.Parse()
	if *writeBudget {
		os.Exit(runWriteBudget())
	}
	os.Exit(run(".", flag.Args(), *jsonOut, *rules, os.Stdout, os.Stderr))
}

// selectAnalyzers resolves the -rules flag value.
func selectAnalyzers(rules string) ([]*lint.Analyzer, error) {
	if rules == "" {
		return lint.All(), nil
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

// program loads the module enclosing dir.
func program(dir string) (*lint.Program, error) {
	root, err := lint.FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	return lint.NewProgram(root)
}

// run lints the packages matching patterns in the module enclosing dir and
// returns the exit status.
func run(dir string, patterns []string, jsonOut bool, rules string, stdout, stderr io.Writer) int {
	analyzers, err := selectAnalyzers(rules)
	if err != nil {
		return fail(stderr, err)
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// One shared Program: every package is parsed and type-checked exactly
	// once, and each whole-program fact (the lock-order graph, the guard,
	// key-flow and heap analyses) is computed once and shared by every
	// rule and file that consults it.
	prog, err := program(dir)
	if err != nil {
		return fail(stderr, err)
	}
	dirs, err := prog.Loader.Match(patterns)
	if err != nil {
		return fail(stderr, err)
	}
	if len(dirs) == 0 {
		return fail(stderr, fmt.Errorf("no packages match %v", patterns))
	}

	var diags []lint.Diagnostic
	for _, dir := range dirs {
		pkg, err := prog.Package(dir)
		if err != nil {
			return fail(stderr, err)
		}
		diags = append(diags, lint.Run(pkg, analyzers)...)
	}
	// Report module-relative paths: stable across machines and CI. Re-sort
	// afterwards — relativization changes the byte order of paths.
	root := prog.Loader.ModRoot
	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil {
			diags[i].File = rel
		}
	}
	diags = lint.SortDiagnostics(diags)

	text := stdout
	if jsonOut {
		text = stderr
		if err := lint.WriteJSONTool(stdout, "chopperlint", diags); err != nil {
			return fail(stderr, err)
		}
	}
	if err := lint.WriteText(text, diags); err != nil {
		return fail(stderr, err)
	}
	if len(diags) > 0 {
		_, _ = fmt.Fprintf(stderr, "chopperlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// runWriteBudget recomputes the hot-path allocation-site budget and
// commits it to heapbudget.json at the module root.
func runWriteBudget() int {
	prog, err := program(".")
	if err != nil {
		return fail(os.Stderr, err)
	}
	data, err := lint.HeapBudgetJSON(prog)
	if err != nil {
		return fail(os.Stderr, err)
	}
	path := filepath.Join(prog.Loader.ModRoot, lint.HeapBudgetFile)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fail(os.Stderr, err)
	}
	fmt.Fprintf(os.Stderr, "chopperlint: wrote %s\n", path)
	return 0
}

func fail(stderr io.Writer, err error) int {
	_, _ = fmt.Fprintln(stderr, "chopperlint:", err)
	return 2
}
