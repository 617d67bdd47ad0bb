// heapbox.go implements boxf64, the heap-family rule keeping the typed
// F64 kernel fast paths (PR 4) box-free: inside a region guarded by an
// `agg.CreateF64 != nil`-style check, calling the boxed counterpart hook
// (Create/MergeValue/MergeCombiners on the same base) or boxing a float64
// into an interface inside a loop silently re-introduces the per-record
// allocations the typed path exists to eliminate — the AllocsPerRun tests
// would catch it at runtime for the shapes they pin, this rule catches it
// at lint time for every call site.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// f64Hooks are the typed fast-path hook fields; their presence checks
// open an F64 region.
var f64Hooks = map[string]string{
	"CreateF64":         "Create",
	"MergeValueF64":     "MergeValue",
	"MergeCombinersF64": "MergeCombiners",
}

// BoxF64 flags boxed-path fallbacks and in-loop float64 boxing inside
// regions guarded by the typed F64 aggregator hooks.
var BoxF64 = &Analyzer{
	Name: "boxf64",
	Doc:  "typed F64 kernel fast path calls a boxed hook or boxes float64 values in a loop",
	Run:  runBoxF64,
}

func runBoxF64(f *File) []Diagnostic {
	if f.Info == nil {
		return nil
	}
	if f.Pkg != nil && f.Pkg.Prog != nil && !pathIs(f.Path, heapAnalysisPackages) {
		return nil
	}
	var out []Diagnostic
	ast.Inspect(f.AST, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		bases, hooks := f64Region(f, ifs.Cond)
		if len(bases) == 0 {
			return true
		}
		out = append(out, checkF64Region(f, ifs.Body, bases, hooks)...)
		return true
	})
	return out
}

// f64Region recognizes a condition establishing the typed fast path: one
// or more `base.XxxF64 != nil` comparisons joined by &&. It returns the
// base expression strings and the guarding hook names.
func f64Region(f *File, cond ast.Expr) (bases map[string]bool, hooks []string) {
	bases = map[string]bool{}
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		be, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		if be.Op == token.LAND {
			walk(be.X)
			walk(be.Y)
			return
		}
		if be.Op != token.NEQ {
			return
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			sel, ok := ast.Unparen(side).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if _, isHook := f64Hooks[sel.Sel.Name]; !isHook {
				continue
			}
			bases[types.ExprString(ast.Unparen(sel.X))] = true
			hooks = append(hooks, sel.Sel.Name)
		}
	}
	walk(cond)
	if len(hooks) == 0 {
		return nil, nil
	}
	return bases, hooks
}

// checkF64Region scans the guarded block. Function literals are not
// descended into for the loop check — a closure's execution point is
// unknown, and the kernels' once-per-key emission closures are the
// accepted boxing boundary — but a boxed-hook call inside one is still a
// fallback onto the slow path and is flagged.
func checkF64Region(f *File, body *ast.BlockStmt, bases map[string]bool, hooks []string) []Diagnostic {
	var out []Diagnostic
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		boxedName := ""
		for f64, boxed := range f64Hooks {
			if sel.Sel.Name == boxed {
				boxedName = f64
			}
		}
		if boxedName == "" || !bases[types.ExprString(ast.Unparen(sel.X))] {
			return true
		}
		out = append(out, f.diag(call.Pos(), "boxf64", fmt.Sprintf(
			"boxed hook %s.%s called inside the typed F64 fast path (guarded by %s != nil); use the unboxed %s hook",
			types.ExprString(ast.Unparen(sel.X)), sel.Sel.Name, boxedName, boxedName)))
		return true
	})
	// In-loop float64 boxing: walk the region skipping nested literals,
	// then scan each loop body for float64→interface conversions.
	isF64 := func(b *types.Basic) bool { return b.Kind() == types.Float64 }
	var scanLoops func(n ast.Node)
	scanLoops = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			var loopBody *ast.BlockStmt
			switch x := m.(type) {
			case *ast.ForStmt:
				loopBody = x.Body
			case *ast.RangeStmt:
				loopBody = x.Body
			default:
				return true
			}
			for _, pos := range boxingSites(f.Info, nil, loopBody, isF64) {
				out = append(out, f.diag(pos, "boxf64", "float64 value boxed into an interface inside a loop in the typed F64 fast path; keep the accumulation unboxed"))
			}
			return false // boxingSites already covered nested loops
		})
	}
	scanLoops(body)
	return out
}
