// heaplife.go implements genlife, the heap-family buffer-lifetime rule
// for generation-scoped shuffle memory. Views handed out by
// shuffle.Manager.ReduceInput (and the reduce-major index they are
// sub-slices of) alias the map tasks' columnar arenas and are only valid
// until the shuffle generation retires; so do the rdd.Refs that
// ReduceView.Refs returns, the zero-copy form the reduce kernels read in
// place, and every slice derived from them. (A single rdd.BlockRef copied
// out of them is a map task and a position, pure data holding no arena.) Retaining one in a
// heap-lived structure — a struct field, a channel, a goroutine-captured
// closure — outlives memory RetireExcept releases; handing the refs to a
// kernel call is the intended use. (ReduceNodeBytes is not a source: its
// profile is copied out per call and owned by the caller.) A view written
// through an out parameter — ReduceView.BlockInto(i, &dst),
// ColBuckets.BlockInto and BucketInto, Refs.Into — taints dst, and
// writing it straight into a heap-lived location is itself an escape. The rule
// runs a flow-sensitive taint analysis per function on the SSA-lite CFG (the
// copyescape lattice with inverted polarity): arena-derived values taint
// locals through assignment, slicing, and reference-element reads; a deep
// copy (make+copy, append onto a fresh slice, element value copies of pure
// structs) launders the taint; returning a tainted value is the documented
// zero-copy API contract and stays legal. Sinks are intraprocedural — a
// callee that retains its argument is not seen — so the rule is a contract
// on the retaining site, not a full escape proof.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"chopper/internal/lint/ssa"
)

// GenLife flags shuffle-arena-derived slices escaping into heap-lived
// structures without a deep copy.
var GenLife = &Analyzer{
	Name: "genlife",
	Doc:  "slice derived from generation-scoped shuffle arena state escapes into a heap-lived structure without a deep copy",
	Run:  runGenLife,
}

// lifeSourceMethods are the shuffle package's read-path accessors whose
// results alias generation-scoped arena memory: the Manager's, and
// ReduceView.Refs.
var lifeSourceMethods = map[string]bool{
	"ReduceInput": true,
	"index":       true,
	"Refs":        true,
}

// lifeOutMethods are the view writers: each fills its last argument, a
// *ColBlock, with a view aliasing the arena, keyed by receiver type name
// (the shuffle package's ReduceView, the rdd package's ColBuckets and
// Refs).
var lifeOutMethods = map[string]map[string]bool{
	"ReduceView": {"BlockInto": true},
	"ColBuckets": {"BlockInto": true, "BucketInto": true},
	"Refs":       {"Into": true},
}

// lifeSourceFields are the generation-owned state fields themselves
// (reachable only inside the shuffle package, which maintains them).
var lifeSourceFields = map[string]bool{
	"outputs": true,
	"arenas":  true,
	"blocks":  true,
}

func runGenLife(f *File) []Diagnostic {
	if f.Info == nil {
		return nil
	}
	if f.Pkg != nil && f.Pkg.Prog != nil && !pathIs(f.Path, heapAnalysisPackages) {
		return nil
	}
	var out []Diagnostic
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn := ssa.BuildFunc(f.Fset, f.Info, fd)
		out = append(out, lifeCheckFunc(f, fn, fd.Body)...)
		// Closures are separate dataflow problems with an empty entry
		// state: taint originating inside them is still caught; taint
		// captured from the parent is handled at the go-statement sink.
		name := ssa.FuncDisplayName(fd)
		i := 0
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			i++
			cfn := ssa.BuildFuncLit(f.Fset, f.Info, name+"$"+itoa(i), lit)
			out = append(out, lifeCheckFunc(f, cfn, lit.Body)...)
			return true
		})
	}
	return out
}

// lifeFact maps each tainted local to the label of the arena source it
// derives from. nil is bottom (unreachable).
type lifeFact map[*types.Var]string

func cloneLife(f lifeFact) lifeFact {
	if f == nil {
		return nil
	}
	out := make(lifeFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// joinLife unions may-taint facts, keeping the lexicographically smaller
// label on conflict so messages are deterministic.
func joinLife(a, b lifeFact) lifeFact {
	if a == nil {
		return cloneLife(b)
	}
	if b == nil {
		return cloneLife(a)
	}
	out := cloneLife(a)
	for v, lb := range b {
		if la, ok := out[v]; !ok || lb < la {
			out[v] = lb
		}
	}
	return out
}

func equalLife(a, b lifeFact) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for v, la := range a {
		if lb, ok := b[v]; !ok || la != lb {
			return false
		}
	}
	return true
}

// lifeChecker is the per-function analysis state.
type lifeChecker struct {
	f        *File
	rangeSrc map[*ast.Ident]rangeBind
	fresh    map[*types.Var]bool
}

// lifeCheckFunc solves the taint dataflow for one function body and
// replays its blocks looking for escape sinks.
func lifeCheckFunc(f *File, fn *ssa.Func, body ast.Node) []Diagnostic {
	lc := &lifeChecker{
		f:        f,
		rangeSrc: map[*ast.Ident]rangeBind{},
		fresh:    lifeFreshLocals(f.Info, body),
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != body {
			return false
		}
		if rng, ok := n.(*ast.RangeStmt); ok {
			if id, ok := rng.Key.(*ast.Ident); ok && id.Name != "_" {
				lc.rangeSrc[id] = rangeBind{x: rng.X, value: false}
			}
			if id, ok := rng.Value.(*ast.Ident); ok && id.Name != "_" {
				lc.rangeSrc[id] = rangeBind{x: rng.X, value: true}
			}
		}
		return true
	})
	an := &ssa.Analysis[lifeFact]{
		Dir:    ssa.Forward,
		Bottom: func() lifeFact { return nil },
		Entry:  func() lifeFact { return lifeFact{} },
		Join:   joinLife,
		Equal:  equalLife,
		Transfer: func(b *ssa.Block, in lifeFact) lifeFact {
			if in == nil {
				return nil
			}
			σ := cloneLife(in)
			for _, n := range b.Nodes {
				lc.step(σ, n)
			}
			return σ
		},
	}
	res := an.Solve(fn)
	var out []Diagnostic
	for _, b := range fn.Blocks {
		if res.In[b.Index] == nil && b != fn.Entry {
			continue // unreachable
		}
		σ := cloneLife(res.In[b.Index])
		if σ == nil {
			σ = lifeFact{}
		}
		for _, n := range b.Nodes {
			out = append(out, lc.sinks(σ, n)...)
			lc.step(σ, n)
		}
	}
	return out
}

// step applies one block node's effect to σ.
func (lc *lifeChecker) step(σ lifeFact, n ast.Node) {
	switch x := n.(type) {
	case *ast.ExprStmt:
		if dst, label := lc.viewOut(x); label != "" {
			if id, ok := ast.Unparen(dst).(*ast.Ident); ok {
				if v, ok := objOf(lc.f.Info, id).(*types.Var); ok && !v.IsField() && !isPkgLevel(v) {
					σ[v] = label
				}
			}
		}
	case *ast.AssignStmt:
		lc.assign(σ, x.Lhs, x.Rhs)
	case *ast.DeclStmt:
		gd, ok := x.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) == 0 {
				continue // zero values are clean
			}
			lhs := make([]ast.Expr, len(vs.Names))
			for i, name := range vs.Names {
				lhs[i] = name
			}
			lc.assign(σ, lhs, vs.Values)
		}
	case *ast.Ident:
		// Range-head binding: the value of ranging over a tainted
		// container is tainted only when elements carry references —
		// ranging a slice of pure structs copies them, which launders.
		bind, ok := lc.rangeSrc[x]
		if !ok {
			return
		}
		v, isVar := objOf(lc.f.Info, x).(*types.Var)
		if !isVar {
			return
		}
		label := ""
		if bind.value {
			if src := lc.eval(σ, bind.x); src != "" {
				if t := lc.f.typeOf(x); t != nil && !typeIsPure(t) {
					label = src
				}
			}
		}
		if label != "" {
			σ[v] = label
		} else {
			delete(σ, v)
		}
	}
}

// assign applies one (possibly multi-value) assignment.
func (lc *lifeChecker) assign(σ lifeFact, lhs, rhs []ast.Expr) {
	bind := func(l ast.Expr, label string) {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		v, ok := objOf(lc.f.Info, id).(*types.Var)
		if !ok || v.IsField() || isPkgLevel(v) {
			return
		}
		if label != "" {
			σ[v] = label
		} else {
			delete(σ, v)
		}
	}
	if len(lhs) == len(rhs) {
		for i := range lhs {
			bind(lhs[i], lc.eval(σ, rhs[i]))
		}
		return
	}
	if len(rhs) != 1 {
		return
	}
	src := lc.eval(σ, rhs[0])
	for i := range lhs {
		label := src
		if t := lc.f.typeOf(lhs[i]); t != nil && typeIsPure(t) {
			label = ""
		}
		if i > 0 {
			label = "" // the ok of a comma-ok form
		}
		bind(lhs[i], label)
	}
}

// eval computes the taint label of an expression under σ ("" = clean).
func (lc *lifeChecker) eval(σ lifeFact, e ast.Expr) string {
	if e == nil {
		return ""
	}
	if t := lc.f.typeOf(e); t != nil && typeIsPure(t) {
		return "" // value copies of pure data never alias the arena
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := objOf(lc.f.Info, x).(*types.Var); ok {
			return σ[v]
		}
		return ""
	case *ast.SelectorExpr:
		if label := lc.fieldSource(x); label != "" {
			return label
		}
		base := lc.eval(σ, x.X)
		if base == "" {
			return ""
		}
		if t := lc.f.typeOf(x); t != nil && typeIsPure(t) {
			return ""
		}
		return base
	case *ast.IndexExpr:
		base := lc.eval(σ, x.X)
		if base == "" {
			return ""
		}
		if t := lc.f.typeOf(x); t != nil && typeIsPure(t) {
			return "" // element copy of pure data
		}
		return base
	case *ast.SliceExpr:
		return lc.eval(σ, x.X) // reslicing shares the backing array
	case *ast.StarExpr:
		return lc.eval(σ, x.X)
	case *ast.TypeAssertExpr:
		return lc.eval(σ, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return lc.eval(σ, x.X)
		}
		return ""
	case *ast.CompositeLit:
		// A literal holding a tainted value is itself tainted: wrapping
		// the arena slice in a struct does not copy it.
		for _, elt := range x.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			if label := lc.eval(σ, val); label != "" {
				return label
			}
		}
		return ""
	case *ast.CallExpr:
		return lc.evalCall(σ, x)
	}
	return ""
}

// evalCall classifies calls: arena read-path accessors taint their
// results; conversions and append propagate; everything else (make, new,
// copying helpers, external callees) is trusted fresh.
func (lc *lifeChecker) evalCall(σ lifeFact, call *ast.CallExpr) string {
	if lc.f.Info.Types[call.Fun].IsType() {
		if len(call.Args) == 1 {
			return lc.eval(σ, call.Args[0])
		}
		return ""
	}
	if id := idOf(call.Fun); id != nil {
		if _, isBuiltin := objOf(lc.f.Info, id).(*types.Builtin); isBuiltin {
			if id.Name != "append" || len(call.Args) == 0 {
				return ""
			}
			if label := lc.eval(σ, call.Args[0]); label != "" {
				return label // appending may return the tainted base
			}
			if call.Ellipsis.IsValid() {
				last := call.Args[len(call.Args)-1]
				if label := lc.eval(σ, last); label != "" {
					// Spreading copies the elements; only impure elements
					// keep aliasing arena memory.
					if et := elemTypeOf(lc.f.typeOf(last)); et != nil && !typeIsPure(et) {
						return label
					}
				}
			}
			return ""
		}
	}
	if label := lc.methodSource(call); label != "" {
		return label
	}
	return ""
}

// methodSource recognizes the shuffle package's read-path accessors.
func (lc *lifeChecker) methodSource(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := lc.f.Info.Uses[sel.Sel].(*types.Func)
	if !ok || !lifeSourceMethods[fn.Name()] {
		return ""
	}
	if fn.Pkg() == nil || !isShufflePkg(fn.Pkg().Path()) {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Results() != nil {
		pure := true
		for i := 0; i < sig.Results().Len(); i++ {
			if !typeIsPure(sig.Results().At(i).Type()) {
				pure = false
			}
		}
		if pure {
			return ""
		}
	}
	return "shuffle arena read " + fn.Name()
}

// viewOut recognizes a statement calling a view writer (lifeOutMethods):
// it returns the location the view is written to — the pointer argument's
// operand, or the pointer itself — and the source label.
func (lc *lifeChecker) viewOut(stmt *ast.ExprStmt) (ast.Expr, string) {
	call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn, ok := lc.f.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, ""
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || !lifeOutMethods[named.Obj().Name()][fn.Name()] {
		return nil, ""
	}
	if path := fn.Pkg().Path(); !isShufflePkg(path) && !strings.HasSuffix(path, "/rdd") {
		return nil, ""
	}
	dst := call.Args[len(call.Args)-1]
	if u, ok := ast.Unparen(dst).(*ast.UnaryExpr); ok && u.Op == token.AND {
		dst = u.X
	}
	return dst, "shuffle arena view " + named.Obj().Name() + "." + fn.Name()
}

// fieldSource recognizes direct reads of the generation-owned state fields.
func (lc *lifeChecker) fieldSource(sel *ast.SelectorExpr) string {
	if !lifeSourceFields[sel.Sel.Name] {
		return ""
	}
	v, ok := objOf(lc.f.Info, sel.Sel).(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil || !isShufflePkg(v.Pkg().Path()) {
		return ""
	}
	return "shuffle generation-owned field " + sel.Sel.Name
}

func isShufflePkg(path string) bool {
	return path == "chopper/internal/shuffle" || strings.HasSuffix(path, "/shuffle")
}

// sinks checks one block node for escapes of tainted values into
// heap-lived structures.
func (lc *lifeChecker) sinks(σ lifeFact, n ast.Node) []Diagnostic {
	var out []Diagnostic
	switch x := n.(type) {
	case *ast.ExprStmt:
		if dst, label := lc.viewOut(x); label != "" {
			if tgt, heapLived := lc.heapLivedTarget(σ, dst); heapLived {
				out = append(out, lc.f.diag(x.Pos(), "genlife", fmt.Sprintf(
					"view from %s is written into %s, which outlives the shuffle generation; fill a local and deep-copy (make+copy) before retaining — retirement frees the backing arena", label, tgt)))
			}
		}
	case *ast.AssignStmt:
		if len(x.Lhs) != len(x.Rhs) {
			return nil
		}
		for i := range x.Lhs {
			label := lc.eval(σ, x.Rhs[i])
			if label == "" {
				continue
			}
			if lc.ownCacheStore(x.Lhs[i]) {
				continue // the manager maintaining its own generation-owned state
			}
			if tgt, heapLived := lc.heapLivedTarget(σ, x.Lhs[i]); heapLived {
				out = append(out, lc.f.diag(x.Pos(), "genlife", fmt.Sprintf(
					"slice derived from %s is stored into %s, which outlives the shuffle generation; deep-copy (make+copy) before retaining — retirement frees the backing arena", label, tgt)))
			}
		}
	case *ast.SendStmt:
		if label := lc.eval(σ, x.Value); label != "" {
			out = append(out, lc.f.diag(x.Pos(), "genlife", fmt.Sprintf(
				"slice derived from %s is sent on a channel and outlives the shuffle generation; deep-copy (make+copy) before sending", label)))
		}
	case *ast.GoStmt:
		if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
			if v, label := lc.capturedTaint(σ, lit); label != "" {
				out = append(out, lc.f.diag(x.Pos(), "genlife", fmt.Sprintf(
					"goroutine captures %s, a slice derived from %s, beyond the shuffle generation; deep-copy (make+copy) before launching", v.Name(), label)))
			}
		}
		for _, arg := range x.Call.Args {
			if label := lc.eval(σ, arg); label != "" {
				out = append(out, lc.f.diag(x.Pos(), "genlife", fmt.Sprintf(
					"goroutine argument aliases %s beyond the shuffle generation; deep-copy (make+copy) before launching", label)))
			}
		}
	}
	return out
}

// ownCacheStore reports whether lhs writes one of the manager's own source
// fields inside the shuffle package — the store that *creates* the
// generation-owned state is the ownership site, not an escape.
func (lc *lifeChecker) ownCacheStore(lhs ast.Expr) bool {
	found := false
	ast.Inspect(lhs, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || found {
			return !found
		}
		if lc.fieldSource(sel) != "" {
			found = true
		}
		return true
	})
	return found
}

// heapLivedTarget reports whether storing through lhs retains the value
// beyond the current call: a field of anything but a provably fresh
// local, an element of a non-fresh container, or package-level state.
// Stores into fresh locals under construction are the caller's problem at
// the point the fresh value itself escapes.
func (lc *lifeChecker) heapLivedTarget(σ lifeFact, lhs ast.Expr) (string, bool) {
	e := lhs
	sawField := false
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if v, ok := objOf(lc.f.Info, x.Sel).(*types.Var); ok && v.IsField() {
				sawField = true
				e = x.X
				continue
			}
			// Qualified package-level variable.
			if id := idOf(x.X); id != nil {
				if _, isPkg := lc.f.Info.Uses[id].(*types.PkgName); isPkg {
					return types.ExprString(lhs), true
				}
			}
			e = x.X
		case *ast.Ident:
			v, ok := objOf(lc.f.Info, x).(*types.Var)
			if !ok {
				return "", false
			}
			if isPkgLevel(v) {
				return "package-level " + types.ExprString(lhs), true
			}
			if !sawField {
				return "", false // rebinding or indexing a local slice/map
			}
			if lc.fresh[v] {
				return "", false // under-construction value; not yet escaped
			}
			return "heap-lived " + types.ExprString(lhs), true
		default:
			return "", false
		}
	}
}

// capturedTaint finds a tainted variable captured by lit.
func (lc *lifeChecker) capturedTaint(σ lifeFact, lit *ast.FuncLit) (*types.Var, string) {
	var foundVar *types.Var
	label := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := lc.f.Info.Uses[id].(*types.Var)
		if !ok || within(v.Pos(), lit) {
			return true
		}
		if l := σ[v]; l != "" && (label == "" || l < label || (l == label && v.Name() < foundVar.Name())) {
			foundVar, label = v, l
		}
		return true
	})
	return foundVar, label
}

// lifeFreshLocals returns the locals of body whose every initialization
// is a freshly allocated value (make/new/composite literal) — targets
// still under construction, whose own escape is checked where they
// escape.
func lifeFreshLocals(info *types.Info, body ast.Node) map[*types.Var]bool {
	cand := map[*types.Var]bool{}
	bad := map[*types.Var]bool{}
	note := func(id *ast.Ident, fresh bool) {
		v, ok := objOf(info, id).(*types.Var)
		if !ok || v.IsField() || isPkgLevel(v) {
			return
		}
		if fresh {
			cand[v] = true
		} else {
			bad[v] = true
		}
	}
	freshRHS := func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				_, isLit := ast.Unparen(x.X).(*ast.CompositeLit)
				return isLit
			}
		case *ast.CallExpr:
			if id := idOf(x.Fun); id != nil {
				if _, isBuiltin := objOf(info, id).(*types.Builtin); isBuiltin {
					return id.Name == "make" || id.Name == "new"
				}
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != body {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			fresh := true
			for _, rhs := range x.Rhs {
				if !freshRHS(rhs) {
					fresh = false
				}
			}
			for _, lhs := range x.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
					note(id, fresh)
				}
			}
		case *ast.ValueSpec:
			fresh := len(x.Values) == 0 // zero value
			if !fresh {
				fresh = true
				for _, rhs := range x.Values {
					if !freshRHS(rhs) {
						fresh = false
					}
				}
			}
			for _, id := range x.Names {
				note(id, fresh)
			}
		case *ast.RangeStmt:
			if id, ok := x.Key.(*ast.Ident); ok {
				note(id, false)
			}
			if id, ok := x.Value.(*ast.Ident); ok {
				note(id, false)
			}
		}
		return true
	})
	out := map[*types.Var]bool{}
	for v := range cand {
		if !bad[v] {
			out[v] = true
		}
	}
	return out
}
