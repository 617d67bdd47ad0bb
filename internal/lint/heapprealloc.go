// heapprealloc.go implements prealloc, the heap-family rule for
// statically pre-sizable appends: a slice declared empty and then
// appended to exactly once per element of a ranged-over collection grows
// through the whole make/grow/copy ladder when `make(T, 0, len(coll))`
// would allocate once. Only the unconditional direct-child append is
// flagged — a guarded append (dedup-style filters) has no statically
// derivable capacity and stays exempt.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// PreAlloc flags append-in-loop growth where the capacity is statically
// derivable from the ranged-over collection's length.
var PreAlloc = &Analyzer{
	Name: "prealloc",
	Doc:  "slice grown by append once per ranged element should be pre-sized with make(..., 0, len(...))",
	Run:  runPreAlloc,
}

func runPreAlloc(f *File) []Diagnostic {
	if f.Info == nil {
		return nil
	}
	if f.Pkg != nil && f.Pkg.Prog != nil && !pathIs(f.Path, heapAnalysisPackages) {
		return nil
	}
	var out []Diagnostic
	ast.Inspect(f.AST, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i := 0; i+1 < len(block.List); i++ {
			v, declPos, ok := emptySliceDecl(f, block.List[i])
			if !ok {
				continue
			}
			rng, ok := block.List[i+1].(*ast.RangeStmt)
			if !ok || !rangeHasLen(f, rng.X) {
				continue
			}
			if !appendsOncePerElement(f, rng.Body, v) {
				continue
			}
			out = append(out, f.diag(declPos, "prealloc", fmt.Sprintf(
				"%s is appended to once per element of %s; pre-size it with make(%s, 0, len(%s))",
				v.Name(), types.ExprString(rng.X), typeString(v.Type()), types.ExprString(rng.X))))
		}
		return true
	})
	return out
}

// emptySliceDecl recognizes the three empty-slice declaration forms:
// `var x []T`, `x := []T{}`, and `x := make([]T, 0)`.
func emptySliceDecl(f *File, stmt ast.Stmt) (*types.Var, token.Pos, bool) {
	switch x := stmt.(type) {
	case *ast.DeclStmt:
		gd, ok := x.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR || len(gd.Specs) != 1 {
			return nil, 0, false
		}
		vs, ok := gd.Specs[0].(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || len(vs.Values) != 0 {
			return nil, 0, false
		}
		v, ok := f.Info.Defs[vs.Names[0]].(*types.Var)
		if !ok || !isSliceType(v.Type()) {
			return nil, 0, false
		}
		return v, vs.Names[0].Pos(), true
	case *ast.AssignStmt:
		if x.Tok != token.DEFINE || len(x.Lhs) != 1 || len(x.Rhs) != 1 {
			return nil, 0, false
		}
		id, ok := x.Lhs[0].(*ast.Ident)
		if !ok {
			return nil, 0, false
		}
		v, ok := f.Info.Defs[id].(*types.Var)
		if !ok || !isSliceType(v.Type()) {
			return nil, 0, false
		}
		switch rhs := ast.Unparen(x.Rhs[0]).(type) {
		case *ast.CompositeLit:
			if len(rhs.Elts) == 0 {
				return v, id.Pos(), true
			}
		case *ast.CallExpr:
			if mid := idOf(rhs.Fun); mid != nil && mid.Name == "make" && len(rhs.Args) == 2 {
				if _, isBuiltin := objOf(f.Info, mid).(*types.Builtin); isBuiltin {
					if lit, ok := ast.Unparen(rhs.Args[1]).(*ast.BasicLit); ok && lit.Value == "0" {
						return v, id.Pos(), true
					}
				}
			}
		}
	}
	return nil, 0, false
}

// rangeHasLen reports whether len() of the ranged operand gives the
// element count: slices, arrays, maps, and strings qualify; channels,
// integers, and iterator functions do not.
func rangeHasLen(f *File, x ast.Expr) bool {
	t := f.typeOf(x)
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Array:
		return true
	case *types.Pointer:
		_, isArray := u.Elem().Underlying().(*types.Array)
		return isArray
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// appendsOncePerElement reports whether body contains, as a direct child
// statement, exactly one `v = append(v, <one element>)` — the
// unconditional once-per-element growth pattern — and no other writes to
// v. Two appends per element would need capacity 2*len, so only the
// single-append shape gets the len() hint.
func appendsOncePerElement(f *File, body *ast.BlockStmt, v *types.Var) bool {
	appends := 0
	for _, stmt := range body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			continue
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok || objOf(f.Info, lhs) != v {
			continue
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || call.Ellipsis.IsValid() || len(call.Args) != 2 {
			return false
		}
		id := idOf(call.Fun)
		if id == nil || id.Name != "append" {
			return false
		}
		if _, isBuiltin := objOf(f.Info, id).(*types.Builtin); !isBuiltin {
			return false
		}
		base, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok || objOf(f.Info, base) != v {
			return false
		}
		appends++
	}
	return appends == 1
}

func isSliceType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// typeString renders a type with package qualifiers stripped to base
// names, for readable fix-it hints.
func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
