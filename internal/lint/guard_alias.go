// guard_alias.go is the guard family's value-freshness analysis: a
// flow-sensitive alias lattice over each function's CFG proving that a
// value carries no pointer back into guarded state. copyescape uses it to
// verify copy-on-read accessors return deep copies; lockcontract uses the
// derived returnsFresh summaries to exempt under-construction locals.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"chopper/internal/lint/ssa"
)

// Value states, ordered: a fresh value has no aliasing path back to any
// parameter or receiver; a shallow value is a struct copy whose tainted
// fields still alias the original; an aliased value may point anywhere
// into shared state.
const (
	vFresh int8 = iota
	vShallow
	vAliased
)

// valState is one lattice element.
type valState struct {
	kind  int8
	taint map[string]bool // vShallow: field names still aliasing the source
}

func freshVal() valState   { return valState{kind: vFresh} }
func aliasedVal() valState { return valState{kind: vAliased} }

func shallowVal(taints map[string]bool) valState {
	if len(taints) == 0 {
		return freshVal()
	}
	return valState{kind: vShallow, taint: taints}
}

// bad reports whether the value may alias shared state.
func (v valState) bad() bool {
	return v.kind == vAliased || (v.kind == vShallow && len(v.taint) > 0)
}

func joinVal(a, b valState) valState {
	if a.kind == vAliased || b.kind == vAliased {
		return aliasedVal()
	}
	if a.kind == vFresh && b.kind == vFresh {
		return freshVal()
	}
	taints := map[string]bool{}
	for k := range a.taint {
		taints[k] = true
	}
	for k := range b.taint {
		taints[k] = true
	}
	return shallowVal(taints)
}

func equalVal(a, b valState) bool {
	if a.kind != b.kind || len(a.taint) != len(b.taint) {
		return false
	}
	for k := range a.taint {
		if !b.taint[k] {
			return false
		}
	}
	return true
}

// aliasFact maps each tracked local to its state. nil is bottom
// (unreachable).
type aliasFact map[*types.Var]valState

func cloneAlias(f aliasFact) aliasFact {
	if f == nil {
		return nil
	}
	out := make(aliasFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func joinAlias(a, b aliasFact) aliasFact {
	if a == nil {
		return cloneAlias(b)
	}
	if b == nil {
		return cloneAlias(a)
	}
	out := aliasFact{}
	for v, sa := range a {
		if sb, ok := b[v]; ok {
			out[v] = joinVal(sa, sb)
		} else {
			out[v] = sa
		}
	}
	for v, sb := range b {
		if _, ok := a[v]; !ok {
			out[v] = sb
		}
	}
	return out
}

func equalAlias(a, b aliasFact) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for v, sa := range a {
		sb, ok := b[v]
		if !ok || !equalVal(sa, sb) {
			return false
		}
	}
	return true
}

// typeIsPure reports whether values of t contain no references at any
// depth (no pointers, slices, maps, channels, funcs, or interfaces):
// copying such a value is already a deep copy. Strings are immutable and
// count as pure.
func typeIsPure(t types.Type) bool {
	return typePure(t, map[types.Type]bool{})
}

func typePure(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return true // recursive named types are pure iff their leaves are
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !typePure(u.Field(i).Type(), seen) {
				return false
			}
		}
		return true
	case *types.Array:
		return typePure(u.Elem(), seen)
	default:
		return false
	}
}

// impureFields lists the reference-carrying field names of a struct type.
func impureFields(t types.Type) map[string]bool {
	out := map[string]bool{}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return out
	}
	for i := 0; i < st.NumFields(); i++ {
		if !typeIsPure(st.Field(i).Type()) {
			out[st.Field(i).Name()] = true
		}
	}
	return out
}

// aliasFlow solves the freshness dataflow for gf. Parameters and the
// receiver seed as aliased; named results as fresh (zero values).
func (gp *guardProgram) aliasFlow(gf *guardFunc) *ssa.Result[aliasFact] {
	an := &ssa.Analysis[aliasFact]{
		Dir:    ssa.Forward,
		Bottom: func() aliasFact { return nil },
		Entry: func() aliasFact {
			σ := aliasFact{}
			for v := range gf.params {
				σ[v] = aliasedVal()
			}
			for _, v := range gf.results {
				σ[v] = freshVal()
			}
			return σ
		},
		Join:  joinAlias,
		Equal: equalAlias,
		Transfer: func(b *ssa.Block, in aliasFact) aliasFact {
			if in == nil {
				return nil
			}
			σ := cloneAlias(in)
			for _, n := range b.Nodes {
				gp.aliasStep(gf, σ, n)
			}
			return σ
		},
	}
	return an.Solve(gf.fn)
}

// aliasStep applies one block node's effect to σ.
func (gp *guardProgram) aliasStep(gf *guardFunc, σ aliasFact, n ast.Node) {
	switch x := n.(type) {
	case *ast.AssignStmt:
		gp.aliasAssign(gf, σ, x.Lhs, x.Rhs)
	case *ast.DeclStmt:
		gd, ok := x.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if len(vs.Values) == 0 {
				for _, name := range vs.Names {
					if v, ok := gf.info.Defs[name].(*types.Var); ok {
						σ[v] = freshVal() // zero value
					}
				}
				continue
			}
			lhs := make([]ast.Expr, len(vs.Names))
			for i, name := range vs.Names {
				lhs[i] = name
			}
			gp.aliasAssign(gf, σ, lhs, vs.Values)
		}
	case *ast.Ident:
		// Range-head binding: key/value of ranging over the operand.
		bind, ok := gf.rangeSrc[x]
		if !ok {
			return
		}
		v, isVar := objOf(gf.info, x).(*types.Var)
		if !isVar {
			return
		}
		src := gp.evalValue(gf, σ, bind.x)
		σ[v] = gp.elemState(src, gf.info.TypeOf(x))
	}
}

// aliasAssign applies one (possibly multi-value) assignment.
func (gp *guardProgram) aliasAssign(gf *guardFunc, σ aliasFact, lhs, rhs []ast.Expr) {
	if len(lhs) == len(rhs) {
		for i := range lhs {
			gp.assignOne(gf, σ, lhs[i], gp.evalValue(gf, σ, rhs[i]))
		}
		return
	}
	if len(rhs) != 1 {
		return
	}
	// Tuple forms: call, comma-ok index/assert/receive. Each LHS gets the
	// source state filtered by its own (result) type; the ok bool is pure
	// and lands fresh via the purity shortcut.
	src := gp.evalValue(gf, σ, rhs[0])
	for i := range lhs {
		st := src
		if t := gf.info.TypeOf(lhs[i]); t != nil && typeIsPure(t) {
			st = freshVal()
		}
		if i > 0 {
			switch ast.Unparen(rhs[0]).(type) {
			case *ast.IndexExpr, *ast.TypeAssertExpr, *ast.UnaryExpr:
				st = freshVal() // the ok of a comma-ok form
			}
		}
		gp.assignOne(gf, σ, lhs[i], st)
	}
}

// assignOne applies lhs = st.
func (gp *guardProgram) assignOne(gf *guardFunc, σ aliasFact, lhs ast.Expr, st valState) {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		if v, ok := objOf(gf.info, x).(*types.Var); ok && !v.IsField() && !isPkgLevel(v) {
			σ[v] = st
		}
	case *ast.SelectorExpr:
		// Writing a field of a tracked struct value: a fresh RHS clears the
		// field's taint (the StageNode.clone idiom); an aliasing RHS taints
		// a fresh/shallow holder.
		base, ok := ast.Unparen(x.X).(*ast.Ident)
		if !ok {
			gp.taintRoot(gf, σ, x.X, st)
			return
		}
		v, isVar := objOf(gf.info, base).(*types.Var)
		if !isVar || v.IsField() || isPkgLevel(v) {
			return
		}
		cur, tracked := σ[v]
		if !tracked || cur.kind == vAliased {
			return
		}
		taints := map[string]bool{}
		for k := range cur.taint {
			taints[k] = true
		}
		if st.bad() {
			taints[x.Sel.Name] = true
		} else {
			delete(taints, x.Sel.Name)
		}
		σ[v] = shallowVal(taints)
	default:
		gp.taintRoot(gf, σ, lhs, st)
	}
}

// taintRoot handles stores through indexes/derefs: storing an aliasing
// value into a tracked container demotes the container itself — a fresh
// map of aliased pointers is exactly the shallow-copy leak copyescape
// exists to catch.
func (gp *guardProgram) taintRoot(gf *guardFunc, σ aliasFact, e ast.Expr, st valState) {
	if !st.bad() {
		return
	}
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			if v, ok := objOf(gf.info, x).(*types.Var); ok && !v.IsField() && !isPkgLevel(v) {
				if _, tracked := σ[v]; tracked {
					σ[v] = aliasedVal()
				}
			}
			return
		default:
			return
		}
	}
}

// evalValue computes the state of an expression under σ.
func (gp *guardProgram) evalValue(gf *guardFunc, σ aliasFact, e ast.Expr) valState {
	if e == nil {
		return freshVal()
	}
	if t := gf.info.TypeOf(e); t != nil && typeIsPure(t) {
		return freshVal()
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.BasicLit, *ast.FuncLit:
		return freshVal()
	case *ast.Ident:
		switch obj := objOf(gf.info, x).(type) {
		case *types.Var:
			if obj.IsField() {
				return aliasedVal()
			}
			if isPkgLevel(obj) {
				// Package-level values (sentinel errors) are not receiver
				// state; returning them is not a copy-on-read leak.
				return freshVal()
			}
			if st, ok := σ[obj]; ok {
				return st
			}
			return aliasedVal() // captured from an enclosing scope
		case *types.Nil, *types.Const, *types.Func, *types.Builtin:
			return freshVal()
		}
		return aliasedVal()
	case *ast.SelectorExpr:
		if _, isPkg := gf.info.Uses[idOf(x.X)].(*types.PkgName); isPkg && idOf(x.X) != nil {
			return freshVal() // qualified package-level reference
		}
		if _, isFn := gf.info.Uses[x.Sel].(*types.Func); isFn {
			return freshVal() // method value
		}
		base := gp.evalValue(gf, σ, x.X)
		switch base.kind {
		case vFresh:
			return freshVal()
		case vShallow:
			if base.taint[x.Sel.Name] {
				return aliasedVal()
			}
			return freshVal()
		default:
			return aliasedVal()
		}
	case *ast.IndexExpr:
		return gp.elemState(gp.evalValue(gf, σ, x.X), gf.info.TypeOf(e))
	case *ast.SliceExpr:
		return gp.evalValue(gf, σ, x.X)
	case *ast.StarExpr:
		inner := gp.evalValue(gf, σ, x.X)
		if inner.kind == vFresh {
			return freshVal()
		}
		if t := gf.info.TypeOf(e); t != nil {
			if _, isStruct := t.Underlying().(*types.Struct); isStruct {
				return shallowVal(impureFields(t))
			}
		}
		return aliasedVal()
	case *ast.UnaryExpr:
		switch x.Op {
		case token.AND:
			if _, isLit := ast.Unparen(x.X).(*ast.CompositeLit); isLit {
				return gp.evalValue(gf, σ, x.X)
			}
			inner := gp.evalValue(gf, σ, x.X)
			if inner.bad() {
				return aliasedVal()
			}
			return freshVal()
		case token.ARROW:
			if t := gf.info.TypeOf(e); t != nil && typeIsPure(t) {
				return freshVal()
			}
			return aliasedVal()
		}
		return freshVal()
	case *ast.BinaryExpr:
		return freshVal()
	case *ast.TypeAssertExpr:
		return gp.evalValue(gf, σ, x.X)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			if t := gf.info.TypeOf(val); t != nil && typeIsPure(t) {
				continue
			}
			if gp.evalValue(gf, σ, val).bad() {
				return aliasedVal()
			}
		}
		return freshVal()
	case *ast.CallExpr:
		return gp.evalCall(gf, σ, x)
	}
	return aliasedVal()
}

func idOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// elemState is the state of an element read from a container.
func (gp *guardProgram) elemState(container valState, elem types.Type) valState {
	if elem != nil && typeIsPure(elem) {
		return freshVal()
	}
	if container.kind == vFresh {
		return freshVal()
	}
	if elem != nil {
		if _, isStruct := elem.Underlying().(*types.Struct); isStruct {
			return shallowVal(impureFields(elem))
		}
	}
	return aliasedVal()
}

// evalCall handles conversions, builtins, and summarized calls.
func (gp *guardProgram) evalCall(gf *guardFunc, σ aliasFact, call *ast.CallExpr) valState {
	if gf.info.Types[call.Fun].IsType() {
		// Conversion: []string(nil) is fresh; []T(x) keeps x's aliasing.
		if len(call.Args) == 1 {
			return gp.evalValue(gf, σ, call.Args[0])
		}
		return freshVal()
	}
	if id := idOf(call.Fun); id != nil {
		if _, isBuiltin := objOf(gf.info, id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new", "len", "cap", "min", "max":
				return freshVal()
			case "append":
				if len(call.Args) == 0 {
					return freshVal()
				}
				base := gp.evalValue(gf, σ, call.Args[0])
				if base.kind == vAliased {
					return aliasedVal()
				}
				for _, arg := range call.Args[1:] {
					if t := gf.info.TypeOf(arg); t != nil && typeIsPure(t) {
						continue
					}
					st := gp.evalValue(gf, σ, arg)
					if call.Ellipsis.IsValid() && arg == call.Args[len(call.Args)-1] {
						// Spreading a slice appends its elements.
						st = gp.elemState(st, elemTypeOf(gf.info.TypeOf(arg)))
					}
					if st.bad() {
						return aliasedVal()
					}
				}
				return freshVal()
			default:
				return freshVal()
			}
		}
	}
	// Static call with a freshness summary; unknown (external) callees are
	// trusted to return fresh values — the contract boundary stops at the
	// module's own guarded state.
	var full string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := objOf(gf.info, fun).(*types.Func); ok {
			full = fn.FullName()
		}
	case *ast.SelectorExpr:
		if fn, ok := gf.info.Uses[fun.Sel].(*types.Func); ok {
			full = fn.FullName()
		}
	default:
		return aliasedVal() // dynamic call
	}
	if fresh, known := gp.summaries[full]; known && !fresh {
		return aliasedVal()
	}
	return freshVal()
}

// elemTypeOf returns a slice/array element type.
func elemTypeOf(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	}
	return nil
}

// buildSummaries iterates returnsFresh to a fixpoint over the analyzed
// packages, starting optimistic (everything fresh) and demoting functions
// whose impure results can alias parameters or receiver state.
func (gp *guardProgram) buildSummaries() {
	for _, name := range gp.order {
		gf := gp.funcs[name]
		if gf.analyzed && !gf.closure {
			gp.summaries[name] = true
		}
	}
	for iter := 0; iter < 8; iter++ {
		changed := false
		for _, name := range gp.order {
			gf := gp.funcs[name]
			if !gf.analyzed || gf.closure {
				continue
			}
			fresh := len(gp.returnFindings(gf)) == 0
			if gp.summaries[name] != fresh {
				gp.summaries[name] = fresh
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// returnFindings solves gf's alias flow and returns the positions of
// return statements whose impure-typed results may alias shared state.
func (gp *guardProgram) returnFindings(gf *guardFunc) []token.Pos {
	res := gp.aliasFlow(gf)
	var out []token.Pos
	for _, b := range gf.fn.Blocks {
		if res.In[b.Index] == nil && b != gf.fn.Entry {
			continue
		}
		σ := cloneAlias(res.In[b.Index])
		if σ == nil {
			σ = aliasFact{}
		}
		for _, n := range b.Nodes {
			if rs, ok := n.(*ast.ReturnStmt); ok {
				if gp.returnIsBad(gf, σ, rs) {
					out = append(out, rs.Pos())
				}
			}
			gp.aliasStep(gf, σ, n)
		}
	}
	return out
}

// returnIsBad evaluates one return statement's results.
func (gp *guardProgram) returnIsBad(gf *guardFunc, σ aliasFact, rs *ast.ReturnStmt) bool {
	if len(rs.Results) == 0 {
		for _, v := range gf.results {
			if typeIsPure(v.Type()) {
				continue
			}
			if st, ok := σ[v]; ok && st.bad() {
				return true
			}
		}
		return false
	}
	for _, r := range rs.Results {
		if t := gf.info.TypeOf(r); t != nil && typeIsPure(t) {
			continue
		}
		if gp.evalValue(gf, σ, r).bad() {
			return true
		}
	}
	return false
}

// freshLocals is the flow-insensitive freshness set lockcontract uses to
// exempt under-construction values: locals whose every assignment is a
// freshly allocated value.
func (gp *guardProgram) freshLocals(gf *guardFunc) map[*types.Var]bool {
	cand := map[*types.Var]bool{}
	bad := map[*types.Var]bool{}
	body := ast.Node(nil)
	if gf.decl != nil {
		body = gf.decl.Body
	} else if gf.lit != nil {
		body = gf.lit.Body
	}
	if body == nil {
		return cand
	}
	note := func(id *ast.Ident, fresh bool) {
		v, ok := objOf(gf.info, id).(*types.Var)
		if !ok || v.IsField() || isPkgLevel(v) || gf.params[v] {
			return
		}
		if fresh {
			cand[v] = true
		} else {
			bad[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != body {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			fresh := true
			for _, rhs := range x.Rhs {
				if !gp.freshExpr(gf, rhs) {
					fresh = false
				}
			}
			for _, lhs := range x.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
					note(id, fresh)
				}
			}
		case *ast.ValueSpec:
			if len(x.Values) == 0 {
				for _, id := range x.Names {
					note(id, true)
				}
				return true
			}
			fresh := true
			for _, rhs := range x.Values {
				if !gp.freshExpr(gf, rhs) {
					fresh = false
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
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					note(id, false) // address escapes; stop trusting it
				}
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

// freshExpr is the syntactic freshness test for whole-RHS classification.
func (gp *guardProgram) freshExpr(gf *guardFunc, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit, *ast.BasicLit:
		return true
	case *ast.Ident:
		_, isNil := objOf(gf.info, x).(*types.Nil)
		_, isConst := objOf(gf.info, x).(*types.Const)
		return isNil || isConst
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, isLit := ast.Unparen(x.X).(*ast.CompositeLit)
			return isLit
		}
		return false
	case *ast.CallExpr:
		if gf.info.Types[x.Fun].IsType() {
			return len(x.Args) == 1 && gp.freshExpr(gf, x.Args[0])
		}
		if id := idOf(x.Fun); id != nil {
			if _, isBuiltin := objOf(gf.info, id).(*types.Builtin); isBuiltin {
				return id.Name == "make" || id.Name == "new"
			}
			if fn, ok := objOf(gf.info, id).(*types.Func); ok {
				return gp.summaries[fn.FullName()]
			}
		}
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			if fn, ok := gf.info.Uses[sel.Sel].(*types.Func); ok {
				return gp.summaries[fn.FullName()]
			}
		}
		return false
	}
	return false
}
