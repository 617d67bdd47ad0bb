// Package lint implements the four rule families cmd/chopperlint runs over
// the module from one shared load (Program). The first is the determinism
// and correctness suite (Determinism). The simulator's headline guarantee —
// identical DAGs, seeds and topology produce bit-identical stage timings —
// only holds if the engine never reads the wall clock, never draws from the
// global (unseeded) math/rand stream, and never lets Go's randomized map
// iteration order leak into scheduling or accounting decisions. Each of
// those invariants is enforced here as a machine-checked rule over the
// non-test source tree:
//
//	walltime       — no time.Now/Since/Sleep/... in the simulation packages
//	globalrand     — no package-level math/rand calls anywhere in library code
//	maporder       — no order-sensitive statements inside `range` over a map
//	                 in decision-making packages (dag, core, exec)
//	droppederr     — no call whose error result is silently discarded
//	closurecapture — closures passed to RDD transforms must be pure: no
//	                 writes to captured or package-level state (directly or
//	                 through in-package callees), no captured variables that
//	                 change after the transform call (lazy re-execution would
//	                 observe the new value)
//	sharedescape   — state reachable from compute-pool goroutine bodies in
//	                 internal/exec must not be written without holding a lock
//	                 (call-graph walk seeded from the `go` statements)
//	lockorder      — no cycles in the whole-program lock-acquisition-order
//	                 graph over the scheduler/engine/shuffle packages
//	                 (flow-sensitive held-set analysis; cycle ⇒ deadlock)
//	nilflow        — no use of a result value on paths where its paired
//	                 error is provably non-nil
//	ctxleak        — compute-pool goroutines must defer wg.Done() and be
//	                 joined by wg.Wait() on every path to return
//
// The last three rules run on the SSA-lite IR (internal/lint/ssa): basic
// blocks with edge-labeled branch conditions and a lattice dataflow engine.
//
// The guard family (Guard) verifies the concurrency and durability
// contracts of the service layer on the same IR:
//
//	lockcontract — guarded fields (inferred from write-under-lock evidence)
//	               must be accessed with their mutex held, write mode for
//	               mutation
//	copyescape   — copy-on-read accessors must return deep copies with no
//	               aliasing path back to guarded maps/slices
//	journalorder — DB mutations must be journaled (observer hook → Store
//	               append) inside their write-lock section, and never after
//	               the request was acknowledged
//	tocou        — a decision from a read-locked load must be re-checked
//	               under the write lock before acting (TOCTOU)
//
// The key family (Key) tracks key provenance through RDD pipelines
// (keydrift, shufflewaste, constkey; see keyflow.go), and the heap family
// (Heap) gates allocation sites and buffer lifetimes on the wave hot path
// against the committed heapbudget.json (hotalloc, boxf64, genlife,
// prealloc; see heap.go). All returns the four families together.
//
// Findings can be suppressed with a trailing or preceding comment of the
// form `//lint:ignore <rule> <reason>`; the reason is mandatory, and the
// directives are themselves audited: a reasonless or unused directive is
// reported as a `suppression` finding (which cannot itself be suppressed).
//
// The suite is stdlib-only (go/parser, go/ast, go/token, go/types) so the
// module keeps its zero-dependency property.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"slices"
	"strings"
	"sync"
)

// Diagnostic is one finding, addressable as file:line:col.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// String renders the diagnostic in the conventional compiler format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// File is one parsed and (best-effort) type-checked source file handed to
// analyzers. Info may be partially filled when type checking saw errors;
// analyzers must degrade gracefully on missing type facts.
type File struct {
	Fset *token.FileSet
	AST  *ast.File
	// Path is the import path of the enclosing package; path-scoped rules
	// (walltime, maporder) use it to decide applicability.
	Path string
	Info *types.Info
	// Pkg is the enclosing package, giving interprocedural analyzers
	// (closurecapture, sharedescape) access to the other files and the
	// package call graph. May be nil for single-file invocations; analyzers
	// degrade to intraprocedural checks then.
	Pkg *Package
}

// diag builds a Diagnostic at the given position.
func (f *File) diag(pos token.Pos, rule, msg string) Diagnostic {
	p := f.Fset.Position(pos)
	return Diagnostic{File: p.Filename, Line: p.Line, Col: p.Column, Rule: rule, Message: msg}
}

// pkgName reports whether id refers to an imported package (rather than a
// local identifier shadowing one). With no type information it falls back to
// trusting the name match.
func (f *File) pkgName(id *ast.Ident) bool {
	if f.Info == nil {
		return true
	}
	obj, ok := f.Info.Uses[id]
	if !ok {
		return true
	}
	_, isPkg := obj.(*types.PkgName)
	return isPkg
}

// typeOf returns the type of e, or nil when type checking could not
// determine it.
func (f *File) typeOf(e ast.Expr) types.Type {
	if f.Info == nil {
		return nil
	}
	return f.Info.TypeOf(e)
}

// Analyzer is one lint rule: a name (used in diagnostics and suppression
// directives), a short description, and a per-file run function.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(f *File) []Diagnostic
}

// Determinism returns the determinism and correctness suite: the rules
// that keep identical inputs producing bit-identical simulated timings.
func Determinism() []*Analyzer {
	return []*Analyzer{WallTime, GlobalRand, MapOrder, DroppedErr, ClosureCapture, SharedEscape, LockOrder, NilFlow, CtxLeak}
}

// Guard returns the guard family: lock-contract and durability-protocol
// verification, scoped to the contract-bearing core, fleet and service
// packages (see guard.go).
func Guard() []*Analyzer {
	return []*Analyzer{LockContract, CopyEscape, JournalOrder, Tocou}
}

// Key returns the key family: flow-sensitive key-provenance and
// co-partitioning analysis of RDD pipelines (see keyflow.go).
func Key() []*Analyzer {
	return []*Analyzer{KeyDriftRule, ShuffleWaste, ConstKey}
}

// Heap returns the heap family: static allocation-site and buffer-lifetime
// analysis of the wave hot path (see heap.go, heapbox.go, heaplife.go,
// heapprealloc.go), gated against the committed budget in heapbudget.json.
func Heap() []*Analyzer {
	return []*Analyzer{HotAlloc, BoxF64, GenLife, PreAlloc}
}

// All returns every analyzer of the four families, in reporting order:
// the set cmd/chopperlint runs by default.
func All() []*Analyzer {
	return slices.Concat(Determinism(), Guard(), Key(), Heap())
}

// ByName resolves analyzer names (the -rules flag) to analyzers of All.
func ByName(names []string) ([]*Analyzer, error) {
	all := All()
	var out []*Analyzer
	for _, n := range names {
		i := slices.IndexFunc(all, func(a *Analyzer) bool { return a.Name == n })
		if i < 0 {
			return nil, fmt.Errorf("lint: unknown rule %q", n)
		}
		out = append(out, all[i])
	}
	return out, nil
}

// Package is a loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Path  string
	Files []*ast.File
	Info  *types.Info

	// Prog points back to the shared Program when the package was loaded
	// through one; whole-program rules (lockorder) use it to reach sibling
	// packages and the cross-package fact cache. Nil for standalone loads
	// (golden fixtures), where those rules degrade to single-package scope.
	Prog *Program

	graphOnce sync.Once
	cg        *callGraph
}

// graph lazily builds the package's intra-module call graph (see
// interproc.go); all files of the package share one graph.
func (p *Package) graph() *callGraph {
	p.graphOnce.Do(func() { p.cg = buildCallGraph(p) })
	return p.cg
}

// Run applies the analyzers to every file of pkg, filters suppressed
// findings, and returns the rest sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var out []Diagnostic
	for _, astFile := range pkg.Files {
		f := &File{Fset: pkg.Fset, AST: astFile, Path: pkg.Path, Info: pkg.Info, Pkg: pkg}
		sup := suppressions(f)
		for _, a := range analyzers {
			for _, d := range a.Run(f) {
				if sup.covers(d) {
					continue
				}
				out = append(out, d)
			}
		}
		out = append(out, sup.audit(f, ran)...)
	}
	// Nested constructs (a map range inside a map range) can report the
	// same finding twice; SortDiagnostics drops the duplicate.
	return SortDiagnostics(out)
}

// suppression is one parsed //lint:ignore directive.
type suppression struct {
	line, col int
	rule      string
	hasReason bool
	used      bool
}

type suppressionSet []*suppression

// suppressions extracts every `//lint:ignore <rule> [reason]` directive of
// the file. Only directives with a reason actually suppress — the reason is
// what keeps suppressions self-documenting — but reasonless ones are kept
// so the audit can report them.
func suppressions(f *File) suppressionSet {
	var out suppressionSet
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "lint:ignore ") {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) < 2 {
				continue
			}
			p := f.Fset.Position(c.Pos())
			out = append(out, &suppression{
				line: p.Line, col: p.Column,
				rule:      fields[1],
				hasReason: len(fields) >= 3,
			})
		}
	}
	return out
}

// covers reports whether a directive on the diagnostic's line, or on the
// line directly above it, names the diagnostic's rule (or "all"). Matching
// directives are marked used for the audit.
func (s suppressionSet) covers(d Diagnostic) bool {
	hit := false
	for _, sup := range s {
		if !sup.hasReason {
			continue
		}
		if sup.rule != d.Rule && sup.rule != "all" {
			continue
		}
		if sup.line == d.Line || sup.line == d.Line-1 {
			sup.used = true
			hit = true
		}
	}
	return hit
}

// audit reports defective directives: a suppression without a reason (which
// therefore suppressed nothing), and a well-formed suppression that matched
// no finding of an analyzer that ran (stale — the code it excused is gone).
// "all" directives are exempt from the staleness check since any single run
// exercises only a subset of rules. Audit findings carry the rule name
// "suppression" and cannot themselves be suppressed.
func (s suppressionSet) audit(f *File, ran map[string]bool) []Diagnostic {
	fileName := f.Fset.Position(f.AST.Pos()).Filename
	var out []Diagnostic
	for _, sup := range s {
		d := Diagnostic{File: fileName, Line: sup.line, Col: sup.col, Rule: "suppression"}
		switch {
		case !sup.hasReason:
			d.Message = fmt.Sprintf("lint:ignore %s has no reason; a suppression must say why the finding is acceptable", sup.rule)
		case !sup.used && sup.rule != "all" && ran[sup.rule]:
			d.Message = fmt.Sprintf("lint:ignore %s suppresses no finding; remove the stale directive", sup.rule)
		default:
			continue
		}
		out = append(out, d)
	}
	return out
}

// WriteText renders diagnostics one per line in compiler format.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// WireDiagnostic is the unified machine-readable finding schema shared by
// every gate CLI (chopperlint, chopperkey, chopperplan, chopperverify);
// ci.sh keeps chopperlint's array as the lint.json artifact.
type WireDiagnostic struct {
	Tool     string `json:"tool"`
	Rule     string `json:"rule"`
	Pos      string `json:"pos"` // file:line:col, or a logical position
	Msg      string `json:"msg"`
	Severity string `json:"severity"` // "error" or "warning"
}

// Wire converts a lint Diagnostic to the shared schema. Suppression-audit
// findings are warnings (hygiene, not correctness); everything else is an
// error.
func Wire(tool string, d Diagnostic) WireDiagnostic {
	sev := "error"
	if d.Rule == "suppression" {
		sev = "warning"
	}
	return WireDiagnostic{
		Tool:     tool,
		Rule:     d.Rule,
		Pos:      fmt.Sprintf("%s:%d:%d", d.File, d.Line, d.Col),
		Msg:      d.Message,
		Severity: sev,
	}
}

// WriteJSONTool renders diagnostics as an indented array of the shared
// wire schema under the given tool name.
func WriteJSONTool(w io.Writer, tool string, diags []Diagnostic) error {
	wire := make([]WireDiagnostic, 0, len(diags))
	for _, d := range diags {
		wire = append(wire, Wire(tool, d))
	}
	return WriteWire(w, wire)
}

// WriteWire renders an already-converted wire array.
func WriteWire(w io.Writer, wire []WireDiagnostic) error {
	if wire == nil {
		wire = []WireDiagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(wire)
}

// importNames returns the local names under which path is imported in the
// file (usually one: the package's base name, or its rename). Blank and dot
// imports yield no usable name and are skipped.
func importNames(file *ast.File, path string) map[string]bool {
	out := map[string]bool{}
	for _, imp := range file.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "_" || name == "." {
			continue
		}
		out[name] = true
	}
	return out
}

// pathIs reports whether importPath is one of the given package paths.
func pathIs(importPath string, pkgs []string) bool {
	for _, p := range pkgs {
		if importPath == p {
			return true
		}
	}
	return false
}
