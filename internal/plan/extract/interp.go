package extract

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"

	"chopper/internal/lint"
	"chopper/internal/rdd"
)

// maxSteps bounds the total number of statements the evaluator executes, so
// a workload whose loop bounds explode (fuzzed field values) degenerates to
// an "unextractable" error rather than a hang.
const maxSteps = 200000

// symJob is one intercepted action.
type symJob struct {
	action string
	target *rdd.RDD
}

// interp symbolically executes one Run method. Values are modeled as
// "known" (a reflect.Value holding the real Go value — ints, strings, the
// context, partitioners, and genuine *rdd.RDD lineage nodes), "function
// literal" (stubbed on demand when passed to an rdd transform), or
// "unknown" (anything data-dependent: action results, driver-side math).
// Control flow executes concretely where conditions are known; unknown
// branches follow the policy in chooseBranch.
type interp struct {
	pkg   *lint.Package
	info  *types.Info
	fset  *token.FileSet
	ctx   *rdd.Context
	decl  *ast.FuncDecl
	w     any
	bytes int64

	jobs  []symJob
	keys  *keyTracker
	steps int
}

// val is one symbolic value.
type val struct {
	known bool
	isNil bool          // known, and the value is an untyped/interface nil
	rv    reflect.Value // valid iff known && !isNil
	lit   *ast.FuncLit  // a function literal, stubbed when passed to the rdd API
}

func unknown() val    { return val{} }
func knownNil() val   { return val{known: true, isNil: true} }
func known(v any) val { return val{known: true, rv: reflect.ValueOf(v)} }
func knownRV(v reflect.Value) val {
	if !v.IsValid() {
		return knownNil()
	}
	return val{known: true, rv: v}
}

// scope is a lexical environment frame.
type scope struct {
	parent *scope
	vars   map[string]val
}

func (s *scope) lookup(name string) (val, bool) {
	for f := s; f != nil; f = f.parent {
		if v, ok := f.vars[name]; ok {
			return v, true
		}
	}
	return val{}, false
}

// set updates name in the frame that defines it, or defines it in the
// current frame (covers both := and = well enough for straight-line Go).
func (s *scope) set(name string, v val) {
	for f := s; f != nil; f = f.parent {
		if _, ok := f.vars[name]; ok {
			f.vars[name] = v
			return
		}
	}
	s.vars[name] = v
}

func (s *scope) define(name string, v val) { s.vars[name] = v }

func (s *scope) child() *scope { return &scope{parent: s, vars: map[string]val{}} }

// ctl is the statement-level control signal.
type ctl int

const (
	ctlNext ctl = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

func newInterp(pkg *lint.Package, decl *ast.FuncDecl, w any, ctx *rdd.Context, inputBytes int64) *interp {
	in := &interp{
		pkg:   pkg,
		info:  pkg.Info,
		fset:  pkg.Fset,
		ctx:   ctx,
		decl:  decl,
		w:     w,
		bytes: inputBytes,
	}
	in.keys = newKeyTracker(in)
	return in
}

// bail aborts extraction with a positioned reason; recovered in Extract.
func (in *interp) bail(pos token.Pos, format string, args ...any) {
	where := ""
	if pos.IsValid() {
		where = in.fset.Position(pos).String() + ": "
	}
	panic(where + fmt.Sprintf(format, args...))
}

// run seeds the environment (receiver via reflection on the live workload
// value, the context, the input size) and executes the body.
func (in *interp) run() {
	env := &scope{vars: map[string]val{}}
	if recv := in.decl.Recv.List[0]; len(recv.Names) == 1 {
		env.define(recv.Names[0].Name, known(in.w))
	}
	params := in.decl.Type.Params.List
	if len(params) == 2 && len(params[0].Names) == 1 && len(params[1].Names) == 1 {
		env.define(params[0].Names[0].Name, known(in.ctx))
		env.define(params[1].Names[0].Name, known(in.bytes))
	} else {
		in.bail(in.decl.Pos(), "Run signature has unexpected parameter shape")
	}
	in.execBlock(in.decl.Body, env)
}

func (in *interp) step(pos token.Pos) {
	in.steps++
	if in.steps > maxSteps {
		in.bail(pos, "evaluation exceeded %d steps (runaway loop?)", maxSteps)
	}
}

// execBlock executes a block in a fresh child scope.
func (in *interp) execBlock(b *ast.BlockStmt, env *scope) ctl {
	inner := env.child()
	for _, st := range b.List {
		if c := in.execStmt(st, inner); c != ctlNext {
			return c
		}
	}
	return ctlNext
}

func (in *interp) execStmt(st ast.Stmt, env *scope) ctl {
	in.step(st.Pos())
	switch s := st.(type) {
	case *ast.AssignStmt:
		in.execAssign(s, env)
	case *ast.DeclStmt:
		in.execDecl(s, env)
	case *ast.ExprStmt:
		in.evalMulti(s.X, env)
	case *ast.IncDecStmt:
		in.execIncDec(s, env)
	case *ast.IfStmt:
		return in.execIf(s, env)
	case *ast.ForStmt:
		return in.execFor(s, env)
	case *ast.RangeStmt:
		return in.execRange(s, env)
	case *ast.ReturnStmt:
		in.checkReturn(s, env)
		return ctlReturn
	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				in.bail(s.Pos(), "labeled break not modeled")
			}
			return ctlBreak
		case token.CONTINUE:
			if s.Label != nil {
				in.bail(s.Pos(), "labeled continue not modeled")
			}
			return ctlContinue
		default:
			in.bail(s.Pos(), "%s not modeled", s.Tok)
		}
	case *ast.BlockStmt:
		return in.execBlock(s, env)
	case *ast.EmptyStmt:
	default:
		in.bail(st.Pos(), "statement %T not modeled by the symbolic evaluator", st)
	}
	return ctlNext
}

// checkReturn sanity-checks a reached return: the evaluator steers around
// error paths, so reaching a return that constructs a non-nil error means
// the control-flow model went wrong — fail loudly instead of reporting a
// truncated plan as truth.
func (in *interp) checkReturn(s *ast.ReturnStmt, env *scope) {
	if len(s.Results) == 0 {
		return
	}
	last := s.Results[len(s.Results)-1]
	if t := in.info.TypeOf(last); t == nil || !types.Identical(t, types.Universe.Lookup("error").Type()) {
		return
	}
	if call, ok := ast.Unparen(last).(*ast.CallExpr); ok {
		if name := calleeFullName(in.info, call); name == "fmt.Errorf" || name == "errors.New" {
			in.bail(s.Pos(), "evaluation reached an error return (%s); control-flow model diverged", name)
		}
	}
}

func (in *interp) execAssign(s *ast.AssignStmt, env *scope) {
	var vals []val
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
		vals = in.evalMulti(s.Rhs[0], env)
		if len(vals) != len(s.Lhs) {
			in.bail(s.Pos(), "assignment arity mismatch: %d = %d", len(s.Lhs), len(vals))
		}
	} else {
		for i, r := range s.Rhs {
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
				// Compound assignment (+=, -=, ...): model as binary op.
				op := compoundOp(s.Tok)
				cur := in.evalExpr(s.Lhs[i], env)
				rhs := in.evalExpr(r, env)
				vals = append(vals, in.binop(s.Pos(), op, cur, rhs, in.info.TypeOf(s.Lhs[i])))
				continue
			}
			vals = append(vals, in.evalExpr(r, env))
		}
	}
	for i, l := range s.Lhs {
		switch lhs := ast.Unparen(l).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			if s.Tok == token.DEFINE {
				env.define(lhs.Name, vals[i])
			} else {
				env.set(lhs.Name, vals[i])
			}
		default:
			// Writes through selectors/indexes (res.Details[k] = v) mutate
			// driver-side data the plan never depends on; drop them.
		}
	}
}

func compoundOp(tok token.Token) token.Token {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	}
	return token.ILLEGAL
}

func (in *interp) execDecl(s *ast.DeclStmt, env *scope) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, sp := range gd.Specs {
		vs, ok := sp.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			v := unknown()
			if i < len(vs.Values) {
				v = in.evalExpr(vs.Values[i], env)
			}
			if name.Name != "_" {
				env.define(name.Name, v)
			}
		}
	}
}

func (in *interp) execIncDec(s *ast.IncDecStmt, env *scope) {
	id, ok := ast.Unparen(s.X).(*ast.Ident)
	if !ok {
		return
	}
	cur, ok := env.lookup(id.Name)
	if !ok || !cur.known || cur.isNil {
		env.set(id.Name, unknown())
		return
	}
	delta := int64(1)
	if s.Tok == token.DEC {
		delta = -1
	}
	switch cur.rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		nv := reflect.New(cur.rv.Type()).Elem()
		nv.SetInt(cur.rv.Int() + delta)
		env.set(id.Name, knownRV(nv))
	default:
		env.set(id.Name, unknown())
	}
}

func (in *interp) execIf(s *ast.IfStmt, env *scope) ctl {
	inner := env.child()
	if s.Init != nil {
		if c := in.execStmt(s.Init, inner); c != ctlNext {
			return c
		}
	}
	cond := in.evalExpr(s.Cond, inner)
	if cond.known && !cond.isNil && cond.rv.Kind() == reflect.Bool {
		if cond.rv.Bool() {
			return in.execBlock(s.Body, inner)
		}
		if s.Else != nil {
			return in.execStmt(s.Else, inner)
		}
		return ctlNext
	}
	return in.chooseBranch(s, inner)
}

// chooseBranch handles an if whose condition is data-dependent. Policy:
// prefer the branch that does not end in a return (these are almost always
// error guards around action results the evaluator cannot see); a branch
// free of rdd-API calls can be skipped outright; a data-dependent branch
// that builds lineage is beyond the model and aborts extraction.
func (in *interp) chooseBranch(s *ast.IfStmt, env *scope) ctl {
	bodyReturns := blockEndsInReturn(s.Body)
	elseReturns := false
	if s.Else != nil {
		if eb, ok := s.Else.(*ast.BlockStmt); ok {
			elseReturns = blockEndsInReturn(eb)
		}
	}
	switch {
	case bodyReturns && elseReturns:
		in.bail(s.Pos(), "data-dependent branch returns on both arms; cannot pick a path")
	case bodyReturns:
		if s.Else != nil {
			return in.execStmt(s.Else, env)
		}
		return ctlNext
	case elseReturns:
		return in.execBlock(s.Body, env)
	}
	// Neither branch returns: safe to skip only if no lineage would be
	// built either way.
	if !in.containsRDDOps(s.Body) && (s.Else == nil || !in.containsRDDOps(s.Else)) {
		return ctlNext
	}
	in.bail(s.Pos(), "data-dependent branch builds RDD lineage; cannot extract statically")
	return ctlNext
}

// blockEndsInReturn reports whether the block's last statement is a return
// (the shape of every error guard in the workloads).
func blockEndsInReturn(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	_, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	return ok
}

func (in *interp) execFor(s *ast.ForStmt, env *scope) ctl {
	inner := env.child()
	if s.Init != nil {
		if c := in.execStmt(s.Init, inner); c != ctlNext {
			return c
		}
	}
	for {
		in.step(s.Pos())
		if s.Cond != nil {
			cond := in.evalExpr(s.Cond, inner)
			if !cond.known || cond.isNil || cond.rv.Kind() != reflect.Bool {
				in.bail(s.Cond.Pos(), "loop condition is not statically known")
			}
			if !cond.rv.Bool() {
				return ctlNext
			}
		}
		switch in.execBlock(s.Body, inner) {
		case ctlBreak:
			return ctlNext
		case ctlReturn:
			return ctlReturn
		}
		if s.Post != nil {
			in.execStmt(s.Post, inner)
		}
	}
}

// execRange models range loops. A range whose body builds no lineage is
// driver-side bookkeeping and is skipped; a range over a statically known
// slice executes concretely; anything else aborts extraction.
func (in *interp) execRange(s *ast.RangeStmt, env *scope) ctl {
	if !in.containsRDDOps(s.Body) {
		return ctlNext
	}
	coll := in.evalExpr(s.X, env)
	if !coll.known || coll.isNil || (coll.rv.Kind() != reflect.Slice && coll.rv.Kind() != reflect.Array) {
		in.bail(s.Pos(), "range over data-dependent collection builds RDD lineage; cannot extract statically")
	}
	for i := 0; i < coll.rv.Len(); i++ {
		in.step(s.Pos())
		inner := env.child()
		if id, ok := s.Key.(*ast.Ident); ok && id.Name != "_" {
			inner.define(id.Name, known(int64(i)))
		}
		if s.Value != nil {
			if id, ok := s.Value.(*ast.Ident); ok && id.Name != "_" {
				inner.define(id.Name, knownRV(coll.rv.Index(i)))
			}
		}
		switch in.execBlock(s.Body, inner) {
		case ctlBreak:
			return ctlNext
		case ctlReturn:
			return ctlReturn
		}
	}
	return ctlNext
}

// containsRDDOps reports whether any call under n touches the rdd package
// (transform, action, context or constructor call). Used to decide whether
// skipping a data-dependent region could lose lineage.
func (in *interp) containsRDDOps(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if t := in.info.TypeOf(call.Fun); t != nil && typeMentionsRDD(t) {
			found = true
		}
		return true
	})
	return found
}

// typeMentionsRDD reports whether a callee's signature involves the rdd
// package (receiver-qualified method strings include it too).
func typeMentionsRDD(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil && typeIsRDDNamed(recv.Type()) {
		return true
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if typeIsRDDNamed(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

func typeIsRDDNamed(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && namedInRDD(named)
}

func namedInRDD(n *types.Named) bool {
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "chopper/internal/rdd"
}

// calleeFullName resolves a call's target to its qualified name
// ("fmt.Errorf", "(*chopper/internal/rdd.RDD).Map"), or "".
func calleeFullName(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}
