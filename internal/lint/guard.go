// guard.go is the shared machinery of the guard rule family
// (lockcontract, copyescape, journalorder, tocou): discovery of
// mutex-guarded struct types, write-based inference of which field each
// mutex guards, a flow-sensitive held-lock dataflow with interprocedural
// entry propagation (an unexported helper only ever called under the write
// lock inherits that context), and the per-block event streams the four
// checks replay. The rules verify the concurrency and durability contracts
// of core.DB/core.Store and the chopperd service layer; see DESIGN.md §6d.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"chopper/internal/lint/ssa"
)

// guardAnalysisPackages are the packages the guard family emits diagnostics
// for: the ones whose locking/durability contracts the rules encode.
var guardAnalysisPackages = []string{
	"chopper/internal/core",
	"chopper/internal/fleet",
	"chopper/internal/service",
}

// guardCallPackages additionally feed the cross-package call graph, so
// handler → Tuner.Observe → Session.harvest → DB.AddRun chains resolve.
var guardCallPackages = []string{
	"chopper",
	"chopper/internal/core",
	"chopper/internal/fleet",
	"chopper/internal/service",
}

// Held-lock modes. A lockFact maps a mutex expression key ("d.mu") to a
// mode; lockOwn marks sections the function opened itself (as opposed to a
// context inherited from its callers), which is what makes a critical
// section *this* function's responsibility to journal.
const (
	lockRead  = 1
	lockWrite = 2
	lockOwn   = 4
)

// lockFact is the must-held lock set at a program point. nil means
// unreachable (dataflow bottom).
type lockFact map[string]int

func cloneLock(f lockFact) lockFact {
	if f == nil {
		return nil
	}
	out := make(lockFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// joinLock intersects two must-held sets, taking the weaker mode per key;
// the own bit survives only if both paths own the section.
func joinLock(a, b lockFact) lockFact {
	if a == nil {
		return cloneLock(b)
	}
	if b == nil {
		return cloneLock(a)
	}
	out := lockFact{}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			continue
		}
		m := va & 3
		if vb&3 < m {
			m = vb & 3
		}
		if m == 0 {
			continue
		}
		if va&lockOwn != 0 && vb&lockOwn != 0 {
			m |= lockOwn
		}
		out[k] = m
	}
	return out
}

func equalLock(a, b lockFact) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// guardType is one struct type with at least one mutex field.
type guardType struct {
	key string // "chopper/internal/core.DB", the cross-package identity
	id  string // "core.DB", the diagnostic display name

	mutexes []string        // mutex field names in declaration order
	rw      map[string]bool // mutex field -> is RWMutex

	// guardable holds the fields eligible for guard inference: everything
	// except the mutexes themselves, other sync/atomic primitives (which
	// carry their own synchronization), and channels (internally
	// synchronized; the mutex guards close-vs-send races via flag fields,
	// not the channel value).
	guardable map[string]bool
	// container marks guardable fields of map/slice/pointer kind — the
	// mutable state whose mutation the journal must capture.
	container map[string]bool
	// hook is the func-typed field name through which mutations are
	// journaled (core.DB's observer); "" when the type has none, which
	// exempts it from journalorder.
	hook string

	// guards maps each field to the mutex inferred to guard it, from
	// write-under-lock evidence. Fields with no locked write anywhere are
	// absent (treated as unguarded).
	guards map[string]string
}

// rangeBind records that an identifier emitted in a range head binds the
// key or value of ranging over x.
type rangeBind struct {
	x     ast.Expr
	value bool
}

// guardFunc is one lowered function or closure.
type guardFunc struct {
	name     string // types.Func FullName, or parent+"$N" for closures
	display  string
	pkg      *Package
	analyzed bool // in a diagnostic-emitting package
	fn       *ssa.Func
	info     *types.Info
	decl     *ast.FuncDecl // nil for closures
	lit      *ast.FuncLit  // nil for declarations
	closure  bool
	exported bool

	recvName string
	recvType *guardType // non-nil when the receiver is a guarded type

	// params holds parameter and receiver objects (alias-analysis sources);
	// results the named result objects (for naked returns).
	params  map[*types.Var]bool
	results []*types.Var

	// writes marks the selector expressions that are write roots
	// (assignment LHS, IncDec, delete/copy arguments).
	writes map[ast.Node]bool
	// rangeSrc maps range-head key/value identifiers to their operand.
	rangeSrc map[*ast.Ident]rangeBind
	// fresh marks locals every assignment of which is a freshly allocated
	// value; guarded-field access through them needs no lock.
	fresh map[*types.Var]bool

	// entry is the interprocedurally propagated held-lock context: the
	// min-join over every static call site (always empty for exported
	// functions, which arbitrary callers reach with no locks held).
	entry lockFact
}

// Event kinds for the per-block replay streams.
type gevKind int

const (
	gevAcquire gevKind = iota
	gevRelease
	gevAccess
	gevCall
	gevHook
	gevAck
	gevGo
	gevBind
)

// gEvent is one replayed occurrence: a lock operation, a guarded-field
// access, a static call, a journal-hook invocation, an acknowledgement
// (response write / channel send), a go statement, or a variable binding
// from a read-locked load (tocou's seeds). held is the must-held set just
// before the event.
type gEvent struct {
	kind gevKind
	pos  token.Pos
	held lockFact

	lockKey string // acquire/release
	mode    int    // acquire/release: lockRead or lockWrite

	gt      *guardType // access / hook / guarded-receiver call
	baseKey string
	field   string
	write   bool
	freshB  bool // access through a provably fresh local

	callee string // call / go: resolved FullName ("" when dynamic)

	binds []*types.Var // bind: LHS vars of a read-locked load
	bgt   *guardType   // bind: source field coordinates
	bbase string
	bfld  string
	bkey  string // bind: the read lock's key
}

// guardProgram is the whole-program guard fact, computed once per
// Program (or per package for fixture loads).
type guardProgram struct {
	fset  *token.FileSet
	types map[string]*guardType // keyed by guardType.key
	funcs map[string]*guardFunc
	order []string // sorted func names, the deterministic walk order
	byLit map[*ast.FuncLit]string

	// summaries[f] reports whether every impure-typed result of f is a
	// freshly allocated value (see guard_alias.go).
	summaries map[string]bool
	// mutates[f] reports whether f writes a guarded container field of its
	// (hook-bearing) receiver, directly or through same-receiver callees.
	mutates map[string]bool
	// acks[f] reports whether f can acknowledge a request (HTTP response
	// write or channel send), directly or transitively.
	acks map[string]bool
	// mutators[f] reports whether f can reach a journaled-DB mutation.
	mutators map[string]bool

	lockRes map[string]*ssa.Result[lockFact]
	events  map[string][][]gEvent

	diags []Diagnostic
}

// guardProgramFor returns the shared whole-program fact when f was loaded
// through a Program, or a single-package fact otherwise (fixtures).
func guardProgramFor(f *File) *guardProgram {
	if f.Pkg == nil {
		return nil
	}
	if prog := f.Pkg.Prog; prog != nil {
		v := prog.Fact("guard", func() any {
			var analysis, all []*Package
			for _, path := range guardCallPackages {
				pkg, err := prog.PackageByPath(path)
				if err != nil {
					continue // package may not exist yet; analyze the rest
				}
				all = append(all, pkg)
				if pathIs(path, guardAnalysisPackages) {
					analysis = append(analysis, pkg)
				}
			}
			return buildGuardProgram(analysis, all)
		})
		gp, _ := v.(*guardProgram)
		return gp
	}
	return buildGuardProgram([]*Package{f.Pkg}, []*Package{f.Pkg})
}

// guardDiags filters the program's findings down to one rule and one file.
func guardDiags(f *File, rule string) []Diagnostic {
	if f.Info == nil || f.Pkg == nil {
		return nil
	}
	// Fixture loads analyze whatever package they are given; Program loads
	// restrict diagnostics to the contract-bearing packages.
	if f.Pkg.Prog != nil && !pathIs(f.Path, guardAnalysisPackages) {
		return nil
	}
	gp := guardProgramFor(f)
	if gp == nil {
		return nil
	}
	fileName := f.Fset.Position(f.AST.Pos()).Filename
	var out []Diagnostic
	for _, d := range gp.diags {
		if d.Rule == rule && d.File == fileName {
			out = append(out, d)
		}
	}
	return out
}

// buildGuardProgram runs the full pipeline: type discovery, lowering,
// freshness summaries, entry propagation, guard inference, and the four
// rule checks.
func buildGuardProgram(analysis, all []*Package) *guardProgram {
	gp := &guardProgram{
		types:     map[string]*guardType{},
		funcs:     map[string]*guardFunc{},
		byLit:     map[*ast.FuncLit]string{},
		summaries: map[string]bool{},
		mutates:   map[string]bool{},
		acks:      map[string]bool{},
		mutators:  map[string]bool{},
		lockRes:   map[string]*ssa.Result[lockFact]{},
		events:    map[string][][]gEvent{},
	}
	analyzed := map[*Package]bool{}
	for _, pkg := range analysis {
		analyzed[pkg] = true
	}
	for _, pkg := range all {
		gp.fset = pkg.Fset
		if analyzed[pkg] {
			gp.discoverTypes(pkg)
		}
	}
	for _, pkg := range all {
		gp.collectFuncs(pkg, analyzed[pkg])
	}
	for name := range gp.funcs {
		gp.order = append(gp.order, name)
	}
	sort.Strings(gp.order)

	gp.buildSummaries()
	for _, name := range gp.order {
		gf := gp.funcs[name]
		if gf.analyzed {
			gf.fresh = gp.freshLocals(gf)
		}
	}
	gp.solveEntries()
	// Final lock solutions and event streams under the converged entries.
	for _, name := range gp.order {
		gf := gp.funcs[name]
		res := gp.lockFlow(gf)
		gp.lockRes[name] = res
		gp.events[name] = gp.blockEvents(gf, res, nil)
	}
	gp.inferGuards()
	gp.buildMutates()
	gp.buildAcks()
	gp.buildMutators()

	gp.checkLockContract()
	gp.checkCopyEscape()
	gp.checkJournalOrder()
	gp.checkTocou()
	gp.diags = SortDiagnostics(gp.diags)
	return gp
}

// discoverTypes registers every struct type of pkg that embeds a sync
// mutex, classifying its fields.
func (gp *guardProgram) discoverTypes(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				gt := classifyStruct(tn, st)
				if gt != nil {
					gp.types[gt.key] = gt
				}
			}
		}
	}
}

// classifyStruct builds a guardType when st has at least one mutex field.
func classifyStruct(tn *types.TypeName, st *types.Struct) *guardType {
	gt := &guardType{
		key:       tn.Pkg().Path() + "." + tn.Name(),
		id:        pkgBase(tn.Pkg().Path()) + "." + tn.Name(),
		rw:        map[string]bool{},
		guardable: map[string]bool{},
		container: map[string]bool{},
		guards:    map[string]string{},
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if rw, isMutex := mutexKind(f.Type()); isMutex {
			gt.mutexes = append(gt.mutexes, f.Name())
			gt.rw[f.Name()] = rw
			continue
		}
		if f.Embedded() || syncPrimitive(f.Type()) {
			continue
		}
		switch f.Type().Underlying().(type) {
		case *types.Chan:
			continue // internally synchronized
		case *types.Signature:
			if gt.hook == "" {
				gt.hook = f.Name()
			}
			gt.guardable[f.Name()] = true
		case *types.Map, *types.Slice, *types.Pointer:
			gt.guardable[f.Name()] = true
			gt.container[f.Name()] = true
		default:
			gt.guardable[f.Name()] = true
		}
	}
	if len(gt.mutexes) == 0 {
		return nil
	}
	return gt
}

// mutexKind reports whether t is sync.Mutex or sync.RWMutex.
func mutexKind(t types.Type) (rw, isMutex bool) {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false, false
	}
	switch named.Obj().Name() {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
}

// syncPrimitive reports whether t comes from sync or sync/atomic (WaitGroup,
// Once, atomic.Int64, ...) — self-synchronizing state no mutex guards.
func syncPrimitive(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	p := named.Obj().Pkg().Path()
	return p == "sync" || p == "sync/atomic"
}

// collectFuncs lowers every declaration and closure of pkg.
func (gp *guardProgram) collectFuncs(pkg *Package, analyzed bool) {
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
			gf := &guardFunc{
				name:     tf.FullName(),
				display:  ssa.FuncDisplayName(fd),
				pkg:      pkg,
				analyzed: analyzed,
				fn:       ssa.BuildFunc(pkg.Fset, pkg.Info, fd),
				info:     pkg.Info,
				decl:     fd,
				exported: ast.IsExported(fd.Name.Name),
				params:   map[*types.Var]bool{},
				entry:    lockFact{},
			}
			gf.collectSignature(gp, fd.Recv, fd.Type)
			gf.prepass(fd.Body)
			gp.funcs[gf.name] = gf
			gp.collectClosures(pkg, analyzed, gf.name, fd.Body)
		}
	}
}

// collectClosures registers every function literal under root (at any
// nesting depth) as its own guardFunc with a deterministic synthetic name.
func (gp *guardProgram) collectClosures(pkg *Package, analyzed bool, parent string, root ast.Node) {
	i := 0
	ast.Inspect(root, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		i++
		name := parent + "$" + itoa(i)
		gf := &guardFunc{
			name:     name,
			display:  name,
			pkg:      pkg,
			analyzed: analyzed,
			fn:       ssa.BuildFuncLit(pkg.Fset, pkg.Info, name, lit),
			info:     pkg.Info,
			lit:      lit,
			closure:  true,
			params:   map[*types.Var]bool{},
			entry:    lockFact{},
		}
		gf.collectSignature(gp, nil, lit.Type)
		gf.prepass(lit.Body)
		gp.funcs[name] = gf
		gp.byLit[lit] = name
		return true // nested literals get their own entries too
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// collectSignature records receiver, parameter, and named-result objects.
func (gf *guardFunc) collectSignature(gp *guardProgram, recv *ast.FieldList, ft *ast.FuncType) {
	addField := func(f *ast.Field, asResult bool) {
		for _, name := range f.Names {
			v, ok := gf.info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if asResult {
				gf.results = append(gf.results, v)
			} else {
				gf.params[v] = true
			}
		}
	}
	if recv != nil && len(recv.List) > 0 {
		r := recv.List[0]
		addField(r, false)
		if len(r.Names) > 0 {
			gf.recvName = r.Names[0].Name
			if v, ok := gf.info.Defs[r.Names[0]].(*types.Var); ok {
				gf.recvType = gp.typeOf(v.Type())
			}
		}
	}
	if ft.Params != nil {
		for _, f := range ft.Params.List {
			addField(f, false)
		}
	}
	if ft.Results != nil {
		for _, f := range ft.Results.List {
			addField(f, true)
		}
	}
}

// prepass computes the write roots and range bindings of the body. Nested
// function literals are skipped — each closure prepasses its own body.
func (gf *guardFunc) prepass(body ast.Node) {
	gf.writes = map[ast.Node]bool{}
	gf.rangeSrc = map[*ast.Ident]rangeBind{}
	markWrite := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				gf.writes[x] = true
				return
			default:
				return
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != body {
			return false
		}
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				markWrite(lhs)
			}
		case *ast.IncDecStmt:
			markWrite(x.X)
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && len(x.Args) > 0 {
				if id.Name == "delete" || id.Name == "copy" {
					if _, isBuiltin := objOf(gf.info, id).(*types.Builtin); isBuiltin {
						markWrite(x.Args[0])
					}
				}
			}
		case *ast.RangeStmt:
			if id, ok := x.Key.(*ast.Ident); ok && id.Name != "_" {
				gf.rangeSrc[id] = rangeBind{x: x.X, value: false}
			}
			if id, ok := x.Value.(*ast.Ident); ok && id.Name != "_" {
				gf.rangeSrc[id] = rangeBind{x: x.X, value: true}
			}
		}
		return true
	})
}

// typeOf resolves a type to its guardType (through pointers and across
// type-check universes — the string key survives separate checks of
// importing packages where object identity does not).
func (gp *guardProgram) typeOf(t types.Type) *guardType {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	return gp.types[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}

// guardInspect walks like ssa.InspectShallow but also hands the visitor the
// nested FuncLit node itself (without descending into it), so the replay
// can capture closure definition points.
func guardInspect(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			visit(m)
			return false
		}
		return visit(m)
	})
}

// lockOp is one mutex operation.
type lockOp struct {
	key     string
	mode    int
	release bool
}

// lockOpFor recognizes d.mu.Lock()/RLock()/Unlock()/RUnlock() calls.
func (gf *guardFunc) lockOpFor(call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn, ok := gf.info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return lockOp{}, false
	}
	op := lockOp{}
	switch fn.FullName() {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock":
		op.mode = lockWrite
	case "(*sync.RWMutex).RLock":
		op.mode = lockRead
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock":
		op.mode, op.release = lockWrite, true
	case "(*sync.RWMutex).RUnlock":
		op.mode, op.release = lockRead, true
	default:
		return lockOp{}, false
	}
	op.key = types.ExprString(ast.Unparen(sel.X))
	return op, true
}

func applyLockOp(f lockFact, op lockOp) {
	if op.release {
		delete(f, op.key)
		return
	}
	if f[op.key]&3 < op.mode {
		f[op.key] = op.mode | lockOwn
	}
}

// lockFlow solves the forward must-held analysis for gf under its current
// entry context. Deferred and go'd bodies do not execute at their textual
// position, so their lock operations are skipped — which also means a
// deferred Unlock correctly keeps the lock held through to every exit.
func (gp *guardProgram) lockFlow(gf *guardFunc) *ssa.Result[lockFact] {
	an := &ssa.Analysis[lockFact]{
		Dir:    ssa.Forward,
		Bottom: func() lockFact { return nil },
		Entry:  func() lockFact { return cloneLock(gf.entry) },
		Join:   joinLock,
		Equal:  equalLock,
		Transfer: func(b *ssa.Block, in lockFact) lockFact {
			if in == nil {
				return nil
			}
			out := cloneLock(in)
			for _, n := range b.Nodes {
				ssa.InspectShallow(n, func(m ast.Node) bool {
					switch x := m.(type) {
					case *ast.DeferStmt, *ast.GoStmt:
						return false
					case *ast.CallExpr:
						if op, ok := gf.lockOpFor(x); ok {
							applyLockOp(out, op)
						}
					}
					return true
				})
			}
			return out
		},
	}
	return an.Solve(gf.fn)
}

// accessFor recognizes a guarded-field access.
func (gp *guardProgram) accessFor(gf *guardFunc, sel *ast.SelectorExpr) (gt *guardType, baseKey, field string, ok bool) {
	v, isVar := objOf(gf.info, sel.Sel).(*types.Var)
	if !isVar || !v.IsField() {
		return nil, "", "", false
	}
	gt = gp.typeOf(gf.info.TypeOf(sel.X))
	if gt == nil || !gt.guardable[v.Name()] {
		return nil, "", "", false
	}
	return gt, types.ExprString(ast.Unparen(sel.X)), v.Name(), true
}

// freshBase reports whether the access base is a provably fresh local.
func (gf *guardFunc) freshBase(base ast.Expr) bool {
	id, ok := ast.Unparen(base).(*ast.Ident)
	if !ok {
		return false
	}
	v, _ := objOf(gf.info, id).(*types.Var)
	return v != nil && gf.fresh[v]
}

// blockEvents replays gf's blocks under the solved lock facts and returns
// the per-block event streams. onClosure, when non-nil, receives the held
// set at each closure definition point (the entry-propagation hook).
func (gp *guardProgram) blockEvents(gf *guardFunc, res *ssa.Result[lockFact], onClosure func(*ast.FuncLit, lockFact)) [][]gEvent {
	out := make([][]gEvent, len(gf.fn.Blocks))
	for _, b := range gf.fn.Blocks {
		in := res.In[b.Index]
		if in == nil && b != gf.fn.Entry {
			continue // unreachable
		}
		held := cloneLock(in)
		if held == nil {
			held = lockFact{}
		}
		var evs []gEvent
		emit := func(e gEvent) {
			e.held = cloneLock(held)
			evs = append(evs, e)
		}
		for _, n := range b.Nodes {
			guardInspect(n, func(m ast.Node) bool {
				switch x := m.(type) {
				case *ast.DeferStmt:
					return false
				case *ast.GoStmt:
					emit(gEvent{kind: gevGo, pos: x.Pos(), callee: gf.callTarget(gp, x.Call)})
					return false
				case *ast.FuncLit:
					if onClosure != nil {
						onClosure(x, cloneLock(held))
					}
					return false
				case *ast.SendStmt:
					emit(gEvent{kind: gevAck, pos: x.Pos()})
				case *ast.AssignStmt:
					if ev, ok := gf.bindEvent(gp, x, held); ok {
						emit(ev)
					}
				case *ast.CallExpr:
					gf.callEvents(gp, x, held, emit)
				case *ast.SelectorExpr:
					if gt, base, field, ok := gp.accessFor(gf, x); ok {
						emit(gEvent{
							kind: gevAccess, pos: x.Sel.Pos(), gt: gt,
							baseKey: base, field: field,
							write:  gf.writes[x],
							freshB: gf.freshBase(x.X),
						})
					}
				}
				return true
			})
		}
		out[b.Index] = evs
	}
	return out
}

// callEvents classifies one call: lock op, journal-hook invocation,
// response acknowledgement, or a plain static call.
func (gf *guardFunc) callEvents(gp *guardProgram, call *ast.CallExpr, held lockFact, emit func(gEvent)) {
	if op, ok := gf.lockOpFor(call); ok {
		applyLockOp(held, op)
		kind := gevAcquire
		if op.release {
			kind = gevRelease
		}
		emit(gEvent{kind: kind, pos: call.Pos(), lockKey: op.key, mode: op.mode})
		return
	}
	if gf.info.Types[call.Fun].IsType() {
		return // conversion, not a call
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		// Invocation through a func-typed field of a guarded type: the
		// journal hook (d.observer(...)).
		if v, isVar := gf.info.Uses[sel.Sel].(*types.Var); isVar && v.IsField() {
			if gt := gp.typeOf(gf.info.TypeOf(sel.X)); gt != nil && gt.hook == v.Name() {
				emit(gEvent{kind: gevHook, pos: call.Pos(), gt: gt, baseKey: types.ExprString(ast.Unparen(sel.X))})
			}
			return
		}
		if fn, isFn := gf.info.Uses[sel.Sel].(*types.Func); isFn {
			full := fn.FullName()
			switch full {
			case "(net/http.ResponseWriter).Write", "(net/http.ResponseWriter).WriteHeader":
				emit(gEvent{kind: gevAck, pos: call.Pos(), callee: full})
				return
			}
			ev := gEvent{kind: gevCall, pos: call.Pos(), callee: full}
			if gt := gp.typeOf(gf.info.TypeOf(sel.X)); gt != nil {
				ev.gt = gt
				ev.baseKey = types.ExprString(ast.Unparen(sel.X))
			}
			emit(ev)
			return
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if fn, isFn := objOf(gf.info, id).(*types.Func); isFn {
			emit(gEvent{kind: gevCall, pos: call.Pos(), callee: fn.FullName()})
		}
	}
}

// callTarget resolves a go statement's callee to a guardFunc name.
func (gf *guardFunc) callTarget(gp *guardProgram, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return gp.byLit[fun]
	case *ast.Ident:
		if fn, ok := objOf(gf.info, fun).(*types.Func); ok {
			return fn.FullName()
		}
	case *ast.SelectorExpr:
		if fn, ok := gf.info.Uses[fun.Sel].(*types.Func); ok {
			return fn.FullName()
		}
	}
	return ""
}

// bindEvent recognizes tocou's seed: an assignment whose RHS reads a
// guarded field while (only) the read lock is held.
func (gf *guardFunc) bindEvent(gp *guardProgram, as *ast.AssignStmt, held lockFact) (gEvent, bool) {
	for _, rhs := range as.Rhs {
		var found *gEvent
		ssa.InspectShallow(rhs, func(m ast.Node) bool {
			sel, ok := m.(*ast.SelectorExpr)
			if !ok || found != nil {
				return true
			}
			gt, base, field, ok := gp.accessFor(gf, sel)
			if !ok {
				return true
			}
			m2 := gt.guards[field]
			if m2 == "" {
				// Guard inference has not run yet when bind events are
				// first built; re-derive lazily from any read-held mutex
				// of the base.
				for _, mx := range gt.mutexes {
					if held[base+"."+mx]&3 == lockRead {
						m2 = mx
						break
					}
				}
			}
			if m2 == "" || held[base+"."+m2]&3 != lockRead {
				return true
			}
			found = &gEvent{kind: gevBind, pos: as.Pos(), gt: gt, bgt: gt, bbase: base, bfld: field, bkey: base + "." + m2}
			return false
		})
		if found != nil {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					if v, ok := objOf(gf.info, id).(*types.Var); ok {
						found.binds = append(found.binds, v)
					}
				}
			}
			if len(found.binds) > 0 {
				return *found, true
			}
		}
	}
	return gEvent{}, false
}

// solveEntries iterates the interprocedural lock-context propagation to a
// fixpoint: an unexported function's entry context is the min-join of the
// held sets at its static call sites (with ownership stripped — inherited
// sections are the caller's responsibility); a closure's is the held set at
// its definition point. Exported functions keep the empty context, since
// arbitrary external callers hold nothing.
func (gp *guardProgram) solveEntries() {
	for iter := 0; iter < 12; iter++ {
		callCand := map[string]lockFact{}
		defCand := map[string]lockFact{}
		joinCand := func(m map[string]lockFact, name string, ctx lockFact) {
			if prev, seen := m[name]; seen {
				m[name] = joinLock(prev, ctx)
			} else {
				m[name] = cloneLock(ctx)
			}
		}
		for _, name := range gp.order {
			gf := gp.funcs[name]
			if !gf.analyzed {
				continue
			}
			res := gp.lockFlow(gf)
			evs := gp.blockEvents(gf, res, func(lit *ast.FuncLit, held lockFact) {
				if cname := gp.byLit[lit]; cname != "" {
					defCand[cname] = stripOwn(held)
				}
			})
			for _, blockEvs := range evs {
				for _, ev := range blockEvs {
					if ev.kind != gevCall || ev.callee == "" {
						continue
					}
					callee := gp.funcs[ev.callee]
					if callee == nil || callee.exported || callee.closure || !callee.analyzed {
						continue
					}
					ctx := lockFact{}
					if ev.gt != nil && callee.recvName != "" {
						for _, m := range ev.gt.mutexes {
							if mode := ev.held[ev.baseKey+"."+m] & 3; mode > 0 {
								ctx[callee.recvName+"."+m] = mode
							}
						}
					}
					joinCand(callCand, ev.callee, ctx)
				}
			}
		}
		changed := false
		for _, name := range gp.order {
			gf := gp.funcs[name]
			if !gf.analyzed {
				continue
			}
			var next lockFact
			switch {
			case gf.closure:
				next = defCand[name]
			case gf.exported:
				next = lockFact{}
			default:
				next = callCand[name]
			}
			if next == nil {
				next = lockFact{}
			}
			if !equalLock(gf.entry, next) {
				gf.entry = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// stripOwn removes the ownership bit from an inherited context.
func stripOwn(f lockFact) lockFact {
	out := lockFact{}
	for k, v := range f {
		if v&3 > 0 {
			out[k] = v & 3
		}
	}
	return out
}

// inferGuards derives the field→mutex map from write evidence: a field
// written somewhere while a mutex of its struct is held is guarded by that
// mutex. Writes on fresh locals (under-construction values) are not
// evidence.
func (gp *guardProgram) inferGuards() {
	evidence := map[string]map[string]map[string]int{} // type -> field -> mutex -> count
	for _, name := range gp.order {
		gf := gp.funcs[name]
		if !gf.analyzed {
			continue
		}
		for _, blockEvs := range gp.events[name] {
			for _, ev := range blockEvs {
				if ev.kind != gevAccess || !ev.write || ev.freshB {
					continue
				}
				for _, m := range ev.gt.mutexes {
					if ev.held[ev.baseKey+"."+m]&3 == 0 {
						continue
					}
					tm := evidence[ev.gt.key]
					if tm == nil {
						tm = map[string]map[string]int{}
						evidence[ev.gt.key] = tm
					}
					if tm[ev.field] == nil {
						tm[ev.field] = map[string]int{}
					}
					tm[ev.field][m]++
				}
			}
		}
	}
	for key, tm := range evidence {
		gt := gp.types[key]
		for field, byMutex := range tm {
			best, bestN := "", -1
			for _, m := range gt.mutexes { // declaration order breaks ties
				if n := byMutex[m]; n > bestN {
					best, bestN = m, n
				}
			}
			if bestN > 0 {
				gt.guards[field] = best
			}
		}
	}
}

// diag appends a finding.
func (gp *guardProgram) diag(pos token.Pos, rule, msg string) {
	p := gp.fset.Position(pos)
	gp.diags = append(gp.diags, Diagnostic{File: p.Filename, Line: p.Line, Col: p.Column, Rule: rule, Message: msg})
}

// sortedVarNames renders a deterministic list for messages.
func sortedVarNames(vars []*types.Var) string {
	names := make([]string, 0, len(vars))
	for _, v := range vars {
		names = append(names, v.Name())
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
