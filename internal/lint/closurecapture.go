package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// transformMethods are the RDD methods taking user functions. Their closures
// become part of the lineage graph: the engine re-runs them on task retry and
// lineage re-execution, and runs them concurrently across partitions, so they
// must be pure functions of their arguments.
var transformMethods = map[string]bool{
	"Map":                   true,
	"MapCost":               true,
	"MapFloat":              true,
	"Filter":                true,
	"FlatMap":               true,
	"MapFloatPairs":         true,
	"MapFloatValues":        true,
	"JoinFlatMapFloatPairs": true,
	"MapPartitions":         true,
	"MapValues":             true,
	"ReduceByKey":           true,
	"ReduceByKeyPart":       true,
}

// ClosureCapture flags function literals passed to RDD transforms that are
// not pure: they write captured or package-level variables (directly or via
// package-local callees), or they capture a variable the enclosing function
// keeps mutating — after the transform call, or per loop iteration — so the
// lazily evaluated closure observes a different value on every re-execution.
var ClosureCapture = &Analyzer{
	Name: "closurecapture",
	Doc:  "forbid impure or unstable captures in closures passed to RDD transforms",
	Run:  runClosureCapture,
}

func runClosureCapture(f *File) []Diagnostic {
	if f.Info == nil {
		return nil
	}
	var diags []Diagnostic
	var stack []ast.Node
	ast.Inspect(f.AST, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		method, ok := transformCall(f, call)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				diags = append(diags, checkTransformClosure(f, call, method, lit, stack)...)
			}
		}
		return true
	})
	return diags
}

// transformCall reports whether call invokes an RDD transform method, and
// which one. A selector whose receiver is a package name (strings.Map) or a
// non-RDD value never matches.
func transformCall(f *File, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !transformMethods[sel.Sel.Name] {
		return "", false
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if _, isPkg := f.Info.Uses[id].(*types.PkgName); isPkg {
			return "", false
		}
	}
	if t := f.typeOf(sel.X); t != nil {
		if !strings.Contains(t.String(), "internal/rdd.RDD") {
			return "", false
		}
	}
	return sel.Sel.Name, true
}

// checkTransformClosure inspects one closure argument of a transform call.
// stack is the ancestor chain of the call (call last).
func checkTransformClosure(f *File, call *ast.CallExpr, method string, lit *ast.FuncLit, stack []ast.Node) []Diagnostic {
	var diags []Diagnostic
	flagged := map[*types.Var]bool{}
	captured := capturedVars(f.Info, lit)

	// Writes inside the closure to anything declared outside it.
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		report := func(e ast.Expr) {
			id := rootIdent(e)
			if id == nil {
				return
			}
			v, _ := objOf(f.Info, id).(*types.Var)
			if v == nil || v.IsField() || within(v.Pos(), lit) {
				return
			}
			if flagged[v] {
				return
			}
			flagged[v] = true
			kind := "captured variable"
			if isPkgLevel(v) {
				kind = "package-level variable"
			}
			diags = append(diags, f.diag(e.Pos(), "closurecapture",
				fmt.Sprintf("closure passed to %s writes %s %s; transform closures re-run on retry and lineage re-execution and must be pure", method, kind, v.Name())))
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				report(lhs)
			}
		case *ast.IncDecStmt:
			report(s.X)
		}
		return true
	})

	// Calls inside the closure to package-local functions that (transitively)
	// write package-level state.
	if f.Pkg != nil {
		g := f.Pkg.graph()
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := g.calleeOf(inner)
			if callee == nil {
				return true
			}
			node, ok := g.nodes[callee]
			if !ok || len(node.writes) == 0 {
				return true
			}
			w := node.writes[0]
			if flagged[w.v] {
				return true
			}
			flagged[w.v] = true
			diags = append(diags, f.diag(inner.Pos(), "closurecapture",
				fmt.Sprintf("closure passed to %s calls %s, which writes package-level variable %s; transform closures re-run on retry and lineage re-execution and must be pure", method, callee.Name(), w.v.Name())))
			return true
		})
	}

	// Captured variables the enclosing function keeps changing: transforms
	// are lazy, so the closure does not run where it is written — it runs at
	// every action, retry, and lineage recomputation, observing whatever
	// value the variable holds then.
	encl := enclosingFunc(stack)
	if encl == nil {
		return diags
	}
	loop := enclosingLoop(stack, encl)
	names := make([]*types.Var, 0, len(captured))
	for v := range captured {
		names = append(names, v)
	}
	sort.Slice(names, func(i, j int) bool { return names[i].Pos() < names[j].Pos() })
	for _, v := range names {
		if flagged[v] || isPkgLevel(v) {
			continue
		}
		assigns := collectAssignPositions(f.Info, encl, v)
		for _, pos := range assigns {
			if within(pos, lit) {
				continue // closure-internal writes were handled above
			}
			if pos > call.End() {
				flagged[v] = true
				diags = append(diags, f.diag(call.Pos(), "closurecapture",
					fmt.Sprintf("closure passed to %s captures %s, which is reassigned after the transform call (line %d); the lazy closure observes the new value on re-execution — copy the value into a local first", method, v.Name(), f.Fset.Position(pos).Line)))
				break
			}
			if loop != nil && v.Pos() < loop.Pos() && within(pos, loop) {
				flagged[v] = true
				diags = append(diags, f.diag(call.Pos(), "closurecapture",
					fmt.Sprintf("closure passed to %s captures %s, which is declared outside the enclosing loop and assigned inside it (line %d); every iteration's closure shares the final value — copy the value into a loop-local first", method, v.Name(), f.Fset.Position(pos).Line)))
				break
			}
		}
	}
	return diags
}

// capturedVars collects the free variables of a function literal: variables
// used inside it but declared outside its span (and not fields or
// package-level names, which have their own checks).
func capturedVars(info *types.Info, lit *ast.FuncLit) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, _ := info.Uses[id].(*types.Var)
		if v == nil || v.IsField() || within(v.Pos(), lit) {
			return true
		}
		out[v] = true
		return true
	})
	return out
}

// enclosingFunc returns the innermost function declaration or literal on the
// ancestor stack (excluding the stack's last element itself).
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// enclosingLoop returns the innermost for/range statement on the stack that
// is inside encl, or nil.
func enclosingLoop(stack []ast.Node, encl ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		if stack[i] == encl {
			return nil
		}
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return stack[i]
		}
	}
	return nil
}
