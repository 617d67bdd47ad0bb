// heap.go is the core of the heap rule family (hotalloc, boxf64,
// genlife, prealloc): static allocation-site and buffer-lifetime analysis
// of the wave hot path. ROADMAP item 4 (columnar arenas, GC out of the
// wave loop) needs a contract before an implementation — the AllocsPerRun
// tests catch allocation regressions at runtime for the shapes they pin, but
// nothing stops a PR from quietly re-boxing the f64 kernels or retaining a
// slice of a generation-invalidated shuffle buffer. The heap family makes
// those regressions fail CI deterministically; see DESIGN.md §6f.
//
// This file implements hotalloc: allocation sites (make, append growth,
// map literals, string concatenation, closure heap captures, interface
// boxing of numeric values) are enumerated in every function statically
// reachable from the declared hot-path roots, and — under a whole-program
// load — gated against the committed per-function budget in
// heapbudget.json. A fixture load (no Program) reports each site
// individually, which is what the golden tests and the fuzz target
// exercise. boxf64, genlife, and prealloc live in heapbox.go,
// heaplife.go, and heapprealloc.go.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// heapAnalysisPackages are the packages the heap family emits diagnostics for:
// the wave hot path (engine, kernels, shuffle state) plus the DAG layer
// the scheduler walks per wave.
var heapAnalysisPackages = []string{
	"chopper/internal/dag",
	"chopper/internal/exec",
	"chopper/internal/rdd",
	"chopper/internal/shuffle",
}

// heapCallPackages additionally feed the cross-package call graph, so
// computePass → rdd.PartitionPairsCol → shuffle.PutMapOutput chains resolve.
var heapCallPackages = []string{
	"chopper/internal/cluster",
	"chopper/internal/dag",
	"chopper/internal/exec",
	"chopper/internal/rdd",
	"chopper/internal/shuffle",
}

// HeapBudgetFile is the committed per-function allocation-site budget,
// relative to the module root. Regenerate with `chopperlint -write-budget`
// after auditing any new site.
const HeapBudgetFile = "heapbudget.json"

// heapRoot declares one hot-path entry point: every function statically
// reachable from a root is "hot" and subject to the allocation budget.
type heapRoot struct {
	pkg  string // import path
	recv string // receiver type name, "" for plain functions
	name string
}

// heapRoots are the declared hot-path roots: the per-wave compute loop,
// the shuffle/combine kernels, the per-pair cost model, and every
// Manager read-path accessor the reduce side hits per task.
var heapRoots = []heapRoot{
	{"chopper/internal/exec", "Engine", "computePass"},
	{"chopper/internal/rdd", "", "PartitionPairsCol"},
	{"chopper/internal/rdd", "", "MergeReduceColN"},
	{"chopper/internal/rdd", "", "PairBytes"},
	{"chopper/internal/shuffle", "Manager", "ReduceInput"},
	{"chopper/internal/shuffle", "Manager", "ReduceNodeBytes"},
	{"chopper/internal/shuffle", "Manager", "BestReduceNode"},
}

// Allocation-site kinds, the budget's per-function breakdown keys.
const (
	siteMake      = "make"
	siteAppend    = "append"
	siteMapLit    = "maplit"
	siteStrConcat = "strconcat"
	siteClosure   = "closure"
	siteBox       = "box"
)

// heapSite is one statically enumerated allocation site.
type heapSite struct {
	pos  token.Pos
	kind string
}

// heapFunc is one lowered function or closure in the heap call graph.
type heapFunc struct {
	name     string // types.Func FullName, or parent+"$N" for closures
	display  string
	pkgPath  string
	analyzed bool // in a diagnostic-emitting package
	info     *types.Info
	decl     *ast.FuncDecl // nil for closures
	lit      *ast.FuncLit  // nil for declarations
	sig      *types.Signature

	callees []string
	sites   []heapSite
}

// pos is the diagnostic anchor for per-function findings.
func (hf *heapFunc) pos() token.Pos {
	if hf.decl != nil {
		return hf.decl.Name.Pos()
	}
	return hf.lit.Pos()
}

func (hf *heapFunc) body() *ast.BlockStmt {
	if hf.decl != nil {
		return hf.decl.Body
	}
	return hf.lit.Body
}

// heapProgram is the whole-program heap fact, computed once per
// Program (or per package for fixture loads).
type heapProgram struct {
	fset  *token.FileSet
	funcs map[string]*heapFunc
	order []string // sorted func names, the deterministic walk order
	// hot maps each reachable function to the display name of the root it
	// was first reached from (BFS in sorted root order).
	hot map[string]string

	diags []Diagnostic
}

// heapProgramOf returns the shared whole-program fact for prog.
func heapProgramOf(prog *Program) *heapProgram {
	v := prog.Fact("heap", func() any {
		var analysis, all []*Package
		for _, path := range heapCallPackages {
			pkg, err := prog.PackageByPath(path)
			if err != nil {
				continue // package may not exist yet; analyze the rest
			}
			all = append(all, pkg)
			if pathIs(path, heapAnalysisPackages) {
				analysis = append(analysis, pkg)
			}
		}
		budget, note := loadHeapBudget(filepath.Join(prog.Loader.ModRoot, HeapBudgetFile))
		hp := buildHeapProgram(analysis, all)
		hp.gateBudget(budget, note)
		return hp
	})
	hp, _ := v.(*heapProgram)
	return hp
}

// heapProgramFor returns the shared fact when f was loaded through a
// Program, or a single-package fact otherwise (fixtures). Fixture loads
// have no budget file and report every hot allocation site individually.
func heapProgramFor(f *File) *heapProgram {
	if f.Pkg == nil {
		return nil
	}
	if prog := f.Pkg.Prog; prog != nil {
		return heapProgramOf(prog)
	}
	hp := buildHeapProgram([]*Package{f.Pkg}, []*Package{f.Pkg})
	hp.reportSites()
	return hp
}

// heapDiags filters the program's findings down to one rule and one file.
func heapDiags(f *File, rule string) []Diagnostic {
	if f.Info == nil || f.Pkg == nil {
		return nil
	}
	// Fixture loads analyze whatever package they are given; Program loads
	// restrict diagnostics to the hot-path packages.
	if f.Pkg.Prog != nil && !pathIs(f.Path, heapAnalysisPackages) {
		return nil
	}
	hp := heapProgramFor(f)
	if hp == nil {
		return nil
	}
	fileName := f.Fset.Position(f.AST.Pos()).Filename
	var out []Diagnostic
	for _, d := range hp.diags {
		if d.Rule == rule && d.File == fileName {
			out = append(out, d)
		}
	}
	return out
}

// HotAlloc gates hot-path allocation sites against heapbudget.json: a new
// make/append/map-literal/string-concat/closure-capture/boxing site in a
// function reachable from the declared hot roots fails deterministically.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "new allocation site in a hot-path function exceeds the committed heapbudget.json budget",
	Run:  func(f *File) []Diagnostic { return heapDiags(f, "hotalloc") },
}

// buildHeapProgram collects functions and closures, resolves the static
// call graph, marks hot-reachable functions, and enumerates the allocation
// sites of the analyzed ones.
func buildHeapProgram(analysis, all []*Package) *heapProgram {
	hp := &heapProgram{
		funcs: map[string]*heapFunc{},
		hot:   map[string]string{},
	}
	analyzed := map[*Package]bool{}
	for _, pkg := range analysis {
		analyzed[pkg] = true
	}
	for _, pkg := range all {
		hp.fset = pkg.Fset
		hp.collectHeapFuncs(pkg, analyzed[pkg])
	}
	for name := range hp.funcs {
		hp.order = append(hp.order, name)
	}
	sort.Strings(hp.order)
	hp.markHot()
	for _, name := range hp.order {
		hf := hp.funcs[name]
		if hf.analyzed && hp.hot[name] != "" {
			hf.sites = collectAllocSites(hf.info, hf.sig, hf.body())
		}
	}
	return hp
}

// collectHeapFuncs lowers every declaration and closure of pkg.
func (hp *heapProgram) collectHeapFuncs(pkg *Package, analyzed bool) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			tf, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig, _ := tf.Type().(*types.Signature)
			hf := &heapFunc{
				name:     tf.FullName(),
				display:  pkgBase(pkg.Path) + "." + fd.Name.Name,
				pkgPath:  pkg.Path,
				analyzed: analyzed,
				info:     pkg.Info,
				decl:     fd,
				sig:      sig,
			}
			if fd.Recv != nil {
				hf.display = pkgBase(pkg.Path) + "." + heapRecvName(sig) + "." + fd.Name.Name
			}
			hf.callees = heapCallees(pkg.Info, fd.Body)
			hp.funcs[hf.name] = hf
			hp.collectHeapClosures(pkg, analyzed, hf.name, fd.Body)
		}
	}
}

// collectHeapClosures registers every function literal under root (at any
// nesting depth) as its own heapFunc, with a call edge from the declaring
// function: a closure defined in a hot function is treated as hot — it
// either runs there or is handed to the hot machinery.
func (hp *heapProgram) collectHeapClosures(pkg *Package, analyzed bool, parent string, root ast.Node) {
	i := 0
	ast.Inspect(root, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		i++
		name := parent + "$" + itoa(i)
		sig, _ := pkg.Info.TypeOf(lit).(*types.Signature)
		hf := &heapFunc{
			name:     name,
			display:  name,
			pkgPath:  pkg.Path,
			analyzed: analyzed,
			info:     pkg.Info,
			lit:      lit,
			sig:      sig,
		}
		hf.callees = heapCallees(pkg.Info, lit.Body)
		hp.funcs[name] = hf
		hp.funcs[parent].callees = append(hp.funcs[parent].callees, name)
		return true // nested literals get their own entries too
	})
}

// heapCallees resolves the statically named callees of body (idents and
// selector calls bound to *types.Func), skipping nested literals — those
// are separate nodes reached through definition edges. Dynamic calls
// (func values, interface methods) are unresolved; the analysis is
// conservative in the "misses some reachability" direction, which the
// declared root list compensates for by naming every kernel entry.
func heapCallees(info *types.Info, body ast.Node) []string {
	var out []string
	seen := map[string]bool{}
	add := func(full string) {
		if full != "" && !seen[full] {
			seen[full] = true
			out = append(out, full)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != body {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if fn, ok := objOf(info, fun).(*types.Func); ok {
				add(fn.FullName())
			}
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
				add(fn.FullName())
			}
		}
		return true
	})
	return out
}

// markHot BFS-walks the call graph from the declared roots.
func (hp *heapProgram) markHot() {
	var queue []string
	for _, root := range heapRoots {
		for _, name := range hp.order {
			hf := hp.funcs[name]
			if hf.decl == nil || hf.pkgPath != root.pkg || hf.decl.Name.Name != root.name {
				continue
			}
			if heapRecvName(hf.sig) != root.recv {
				continue
			}
			if hp.hot[name] == "" {
				hp.hot[name] = hf.display
				queue = append(queue, name)
			}
		}
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		root := hp.hot[name]
		for _, callee := range hp.funcs[name].callees {
			if hp.funcs[callee] == nil || hp.hot[callee] != "" {
				continue
			}
			hp.hot[callee] = root
			queue = append(queue, callee)
		}
	}
}

// heapRecvName returns the receiver's named-type name ("" for functions).
func heapRecvName(sig *types.Signature) string {
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// collectAllocSites enumerates the allocation sites of body in source
// order: make, append (growth), map literals, non-constant string
// concatenation, closures capturing outer variables (heap-allocated
// environments), and numeric values boxed into interfaces. Nested
// literals are separate functions; only the capture itself counts here.
func collectAllocSites(info *types.Info, sig *types.Signature, body ast.Node) []heapSite {
	var sites []heapSite
	emit := func(pos token.Pos, kind string) {
		sites = append(sites, heapSite{pos: pos, kind: kind})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != body {
			if capturesOuter(info, lit) {
				emit(lit.Pos(), siteClosure)
			}
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if id := idOf(x.Fun); id != nil {
				if _, isBuiltin := objOf(info, id).(*types.Builtin); isBuiltin {
					switch id.Name {
					case "make":
						emit(x.Pos(), siteMake)
					case "append":
						emit(x.Pos(), siteAppend)
					}
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(x); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					emit(x.Pos(), siteMapLit)
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && info.Types[x].Value == nil {
				if t := info.TypeOf(x); t != nil && isStringType(t) {
					emit(x.Pos(), siteStrConcat)
				}
			}
		}
		return true
	})
	for _, pos := range boxingSites(info, sig, body, nil) {
		sites = append(sites, heapSite{pos: pos, kind: siteBox})
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].pos != sites[j].pos {
			return sites[i].pos < sites[j].pos
		}
		return sites[i].kind < sites[j].kind
	})
	return sites
}

// capturesOuter reports whether lit references a variable defined outside
// itself — the condition under which the closure's environment is
// heap-allocated.
func capturesOuter(info *types.Info, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || isPkgLevel(v) {
			return true
		}
		if !within(v.Pos(), lit) {
			captured = true
		}
		return true
	})
	return captured
}

// boxingSites returns the positions where a numeric value is converted to
// an interface type under body: explicit conversions, call arguments
// against interface parameters, assignments into interface-typed
// locations, composite-literal elements, and returns against interface
// results (sig is the enclosing function's signature). When numericOnly
// is non-nil it further restricts the boxed operand's basic kind.
func boxingSites(info *types.Info, sig *types.Signature, body ast.Node, numericOnly func(*types.Basic) bool) []token.Pos {
	var out []token.Pos
	boxes := func(dst types.Type, src ast.Expr) bool {
		if dst == nil || src == nil {
			return false
		}
		if _, isIface := dst.Underlying().(*types.Interface); !isIface {
			return false
		}
		t := info.TypeOf(src)
		if t == nil {
			return false
		}
		b, ok := t.Underlying().(*types.Basic)
		if !ok || b.Info()&types.IsNumeric == 0 {
			return false
		}
		if numericOnly != nil && !numericOnly(b) {
			return false
		}
		return true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != body {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if info.Types[x.Fun].IsType() {
				// Explicit conversion: any(v).
				if len(x.Args) == 1 && boxes(info.TypeOf(x.Fun), x.Args[0]) {
					out = append(out, x.Args[0].Pos())
				}
				return true
			}
			csig, ok := info.TypeOf(x.Fun).(*types.Signature)
			if !ok {
				return true
			}
			for i, arg := range x.Args {
				var pt types.Type
				switch {
				case csig.Variadic() && i >= csig.Params().Len()-1:
					if x.Ellipsis.IsValid() {
						continue // spread: no per-element boxing here
					}
					pt = elemTypeOf(csig.Params().At(csig.Params().Len() - 1).Type())
				case i < csig.Params().Len():
					pt = csig.Params().At(i).Type()
				}
				if boxes(pt, arg) {
					out = append(out, arg.Pos())
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i := range x.Lhs {
				if boxes(info.TypeOf(x.Lhs[i]), x.Rhs[i]) {
					out = append(out, x.Rhs[i].Pos())
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(x)
			if t == nil {
				return true
			}
			for _, elt := range x.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if boxes(litElemType(t, x, elt), val) {
					out = append(out, val.Pos())
				}
			}
		case *ast.ReturnStmt:
			if sig == nil || sig.Results() == nil {
				return true
			}
			if len(x.Results) != sig.Results().Len() {
				return true
			}
			for i, r := range x.Results {
				if boxes(sig.Results().At(i).Type(), r) {
					out = append(out, r.Pos())
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(x.Chan).Underlying().(*types.Chan); ok && boxes(ch.Elem(), x.Value) {
				out = append(out, x.Value.Pos())
			}
		}
		return true
	})
	return out
}

// litElemType returns the destination type of one composite-literal
// element: map value, slice/array element, or struct field.
func litElemType(t types.Type, lit *ast.CompositeLit, elt ast.Expr) types.Type {
	switch u := t.Underlying().(type) {
	case *types.Map:
		return u.Elem()
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	case *types.Struct:
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				for i := 0; i < u.NumFields(); i++ {
					if u.Field(i).Name() == id.Name {
						return u.Field(i).Type()
					}
				}
			}
			return nil
		}
		for i, e := range lit.Elts {
			if e == elt && i < u.NumFields() {
				return u.Field(i).Type()
			}
		}
	}
	return nil
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// reportSites emits one hotalloc diagnostic per enumerated site (fixture
// mode: no budget file, every site is visible and line-suppressible).
func (hp *heapProgram) reportSites() {
	for _, name := range hp.order {
		hf := hp.funcs[name]
		root := hp.hot[name]
		if root == "" || !hf.analyzed {
			continue
		}
		for _, s := range hf.sites {
			hp.diag(s.pos, "hotalloc", fmt.Sprintf("%s allocation site in hot path %s (reachable from %s)", s.kind, hf.display, root))
		}
	}
	hp.diags = SortDiagnostics(hp.diags)
}

// siteCounts folds a site list into the budget's per-kind breakdown.
func siteCounts(sites []heapSite) map[string]int {
	if len(sites) == 0 {
		return nil
	}
	out := map[string]int{}
	for _, s := range sites {
		out[s.kind]++
	}
	return out
}

// countsString renders a per-kind breakdown deterministically.
func countsString(m map[string]int) string {
	if len(m) == 0 {
		return "none"
	}
	kinds := make([]string, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

// gateBudget compares the enumerated hot-path sites against the committed
// budget and emits one hotalloc diagnostic per out-of-budget function,
// anchored at its declaration. Growth means a new allocation site landed
// in a hot path; shrinkage means the budget is stale — both ask for an
// audited `chopperlint -write-budget` run so the committed file always
// matches a fresh sweep.
func (hp *heapProgram) gateBudget(budget map[string]map[string]int, note string) {
	for _, name := range hp.order {
		hf := hp.funcs[name]
		root := hp.hot[name]
		if root == "" || !hf.analyzed {
			continue
		}
		got := siteCounts(hf.sites)
		want, ok := budget[name]
		if !ok {
			if len(got) == 0 {
				continue // allocation-free hot function needs no entry
			}
			hp.diag(hf.pos(), "hotalloc", fmt.Sprintf(
				"hot-path function %s (reachable from %s) has %d allocation site(s) [%s] but no %s entry%s; audit the sites and run `chopperlint -write-budget`",
				hf.display, root, len(hf.sites), countsString(got), HeapBudgetFile, note))
			continue
		}
		var grew, shrank []string
		kinds := map[string]bool{}
		for k := range got {
			kinds[k] = true
		}
		for k := range want {
			kinds[k] = true
		}
		sorted := make([]string, 0, len(kinds))
		for k := range kinds {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			switch {
			case got[k] > want[k]:
				grew = append(grew, fmt.Sprintf("%s %d>%d", k, got[k], want[k]))
			case got[k] < want[k]:
				shrank = append(shrank, fmt.Sprintf("%s %d<%d", k, got[k], want[k]))
			}
		}
		switch {
		case len(grew) > 0:
			hp.diag(hf.pos(), "hotalloc", fmt.Sprintf(
				"new allocation site(s) in hot-path function %s (reachable from %s): %s over the %s budget; remove the allocation or audit and run `chopperlint -write-budget`",
				hf.display, root, strings.Join(grew, ", "), HeapBudgetFile))
		case len(shrank) > 0:
			hp.diag(hf.pos(), "hotalloc", fmt.Sprintf(
				"stale %s entry for %s: %s below budget; run `chopperlint -write-budget` to re-commit the tightened budget",
				HeapBudgetFile, hf.display, strings.Join(shrank, ", ")))
		}
	}
	hp.diags = SortDiagnostics(hp.diags)
}

// diag appends a finding.
func (hp *heapProgram) diag(pos token.Pos, rule, msg string) {
	p := hp.fset.Position(pos)
	hp.diags = append(hp.diags, Diagnostic{File: p.Filename, Line: p.Line, Col: p.Column, Rule: rule, Message: msg})
}

// heapBudgetFile is the serialized form of heapbudget.json.
type heapBudgetFile struct {
	Note      string                    `json:"note"`
	Functions map[string]map[string]int `json:"functions"`
}

const heapBudgetNote = "per-function allocation-site budget for hot-path code; regenerate with `go run ./cmd/chopperlint -write-budget` after auditing any change"

// loadHeapBudget reads the committed budget; a missing or unreadable file
// yields an empty budget plus a note appended to the resulting findings.
func loadHeapBudget(path string) (map[string]map[string]int, string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, " (" + HeapBudgetFile + " not found at the module root)"
	}
	var f heapBudgetFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, " (" + HeapBudgetFile + " is unreadable: " + err.Error() + ")"
	}
	return f.Functions, ""
}

// HeapBudgetJSON computes a fresh allocation-site budget for the module
// loaded through prog and returns its canonical serialization — the bytes
// `chopperlint -write-budget` commits, and the bytes the committed file
// must equal (TestHeapBudgetMatchesSweep).
func HeapBudgetJSON(prog *Program) ([]byte, error) {
	hp := heapProgramOf(prog)
	if hp == nil {
		return nil, fmt.Errorf("lint: heap analysis unavailable")
	}
	funcs := map[string]map[string]int{}
	for _, name := range hp.order {
		hf := hp.funcs[name]
		if hp.hot[name] == "" || !hf.analyzed {
			continue
		}
		if c := siteCounts(hf.sites); c != nil {
			funcs[name] = c
		}
	}
	data, err := json.MarshalIndent(heapBudgetFile{Note: heapBudgetNote, Functions: funcs}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
