package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// This file holds the shared key-expression model of the key family:
// a canonicalizer that renders the expression producing a pair key into a
// position-independent provenance string, and a cardinality classifier that
// bounds how many distinct values the expression can take. Both the
// flow-sensitive lint rules (keydrift/shufflewaste/constkey) and the
// symbolic extractor's KeyFacts tracker (internal/plan/extract) consume
// them, so the two layers agree on what "the same key" means.

// KeyCard classifies the value space of a key expression.
type KeyCard int

// Cardinality classes, ordered by how much they constrain the key space.
const (
	// CardUnknown: nothing is provable about the expression.
	CardUnknown KeyCard = iota
	// CardConst: the expression is a compile-time constant — every record
	// lands in one partition.
	CardConst
	// CardEnum: the expression ranges over a small provable set (booleans,
	// x % c); Bound carries the set size.
	CardEnum
	// CardData: the expression depends on a closure parameter (per-record
	// data) — the key space follows the data.
	CardData
)

// String renders the class for diagnostics.
func (c KeyCard) String() string {
	switch c {
	case CardConst:
		return "const"
	case CardEnum:
		return "enum"
	case CardData:
		return "data"
	}
	return "unknown"
}

// KeyExpr summarizes the key half of a Pair-constructing closure: the
// canonical provenance of the K field expression, its static type, and the
// cardinality class (with Bound set for CardEnum).
type KeyExpr struct {
	Canon string
	Type  types.Type
	Card  KeyCard
	Bound int
}

// rddPairType reports whether t is (a pointer/alias to) the rdd.Pair type.
func rddPairType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Pair" && obj.Pkg() != nil &&
		obj.Pkg().Path() == "chopper/internal/rdd"
}

// litParams maps the closure's parameter objects to positional indices, so
// canonical strings are stable across parameter renames.
func litParams(info *types.Info, lit *ast.FuncLit) map[types.Object]int {
	params := map[types.Object]int{}
	if lit.Type.Params == nil {
		return params
	}
	i := 0
	for _, f := range lit.Type.Params.List {
		for _, name := range f.Names {
			if obj := info.Defs[name]; obj != nil {
				params[obj] = i
			}
			i++
		}
		if len(f.Names) == 0 {
			i++
		}
	}
	return params
}

// ScanKeyExpr inspects a function literal passed to a record-producing rdd
// transform and extracts the key expression of every rdd.Pair composite
// literal it constructs (including inside nested literals — generators
// build rows through helper closures). It returns the join of all key
// expressions found and ok=false when the closure constructs no pairs.
func ScanKeyExpr(info *types.Info, lit *ast.FuncLit) (KeyExpr, bool) {
	if info == nil || lit == nil {
		return KeyExpr{}, false
	}
	var keys []ast.Expr
	var scopes []*ast.FuncLit
	ast.Inspect(lit, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		t := info.TypeOf(cl)
		if t == nil || !rddPairType(t) {
			return true
		}
		if k := pairKeyField(cl); k != nil {
			keys = append(keys, k)
			scopes = append(scopes, enclosingLit(lit, k))
		}
		return true
	})
	return joinKeyExprs(info, keys, scopes)
}

// ScanEmitKeyExpr is ScanKeyExpr for a JoinFlatMapFloatPairs closure or a
// GenerateFloatPairs generator, which build no Pair literals: their keys
// are the first arguments of their calls to emit, their last parameter.
func ScanEmitKeyExpr(info *types.Info, lit *ast.FuncLit) (KeyExpr, bool) {
	if info == nil || lit == nil {
		return KeyExpr{}, false
	}
	var emit types.Object
	params := litParams(info, lit)
	for obj, i := range params {
		if i == len(params)-1 {
			emit = obj
		}
	}
	if emit == nil {
		return KeyExpr{}, false
	}
	var keys []ast.Expr
	var scopes []*ast.FuncLit
	ast.Inspect(lit, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && info.Uses[id] == emit {
			keys = append(keys, call.Args[0])
			scopes = append(scopes, enclosingLit(lit, call.Args[0]))
		}
		return true
	})
	return joinKeyExprs(info, keys, scopes)
}

// ScanReturnKeyExpr is ScanKeyExpr for a MapFloatPairs closure, which
// builds no Pair literals: its keys are the first results of its return
// statements. same reports that every one of them is the closure's key
// parameter, so its output keeps its input's key; ok=false when it has no
// such return.
func ScanReturnKeyExpr(info *types.Info, lit *ast.FuncLit) (k KeyExpr, same, ok bool) {
	if info == nil || lit == nil || lit.Body == nil {
		return KeyExpr{}, false, false
	}
	params := litParams(info, lit)
	var keys []ast.Expr
	var scopes []*ast.FuncLit
	same = true
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // a nested closure's returns are its own
		case *ast.ReturnStmt:
			if len(x.Results) == 0 {
				return true
			}
			keys = append(keys, x.Results[0])
			scopes = append(scopes, lit)
			id, isIdent := ast.Unparen(x.Results[0]).(*ast.Ident)
			if i, isParam := params[info.Uses[id]]; !isIdent || !isParam || i != 0 {
				same = false
			}
		}
		return true
	})
	k, ok = joinKeyExprs(info, keys, scopes)
	return k, same && ok, ok
}

// joinKeyExprs analyzes every key expression in its enclosing closure and
// joins them; ok=false when there are none.
func joinKeyExprs(info *types.Info, keys []ast.Expr, scopes []*ast.FuncLit) (KeyExpr, bool) {
	if len(keys) == 0 {
		return KeyExpr{}, false
	}
	out := analyzeKeyExpr(info, keys[0], scopes[0])
	for i := 1; i < len(keys); i++ {
		out = joinKeyExpr(out, analyzeKeyExpr(info, keys[i], scopes[i]))
	}
	return out, true
}

// pairKeyField extracts the K field expression of a Pair composite literal
// (keyed or positional form).
func pairKeyField(cl *ast.CompositeLit) ast.Expr {
	for _, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "K" {
				return kv.Value
			}
			continue
		}
		// Positional literal: K is the first field.
		return el
	}
	return nil
}

// enclosingLit finds the innermost function literal under root that
// contains pos — the scope whose parameters count as "data" for the key.
func enclosingLit(root *ast.FuncLit, e ast.Expr) *ast.FuncLit {
	best := root
	ast.Inspect(root, func(n ast.Node) bool {
		fl, ok := n.(*ast.FuncLit)
		if ok && fl.Pos() <= e.Pos() && e.End() <= fl.End() {
			best = fl
		}
		return true
	})
	return best
}

// analyzeKeyExpr canonicalizes and classifies one key expression relative
// to its enclosing closure.
func analyzeKeyExpr(info *types.Info, e ast.Expr, scope *ast.FuncLit) KeyExpr {
	params := litParams(info, scope)
	resolved := resolveLocal(info, e, scope, 0)
	return KeyExpr{
		Canon: canonExpr(info, resolved, params),
		Type:  keyExprType(info, e),
		Card:  cardOf(info, resolved, params, &[]int{0}[0]),
		Bound: boundOf(info, resolved, params),
	}
}

// keyExprType reports the static type of the key expression, or nil when
// the checker recorded none (broken fuzz inputs).
func keyExprType(info *types.Info, e ast.Expr) types.Type {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	return types.Default(tv.Type)
}

// resolveLocal inlines a single-assignment local variable one level: keys
// are often named first (`cust := zipf(...); Pair{K: cust}`), and the
// provenance should see through the name.
func resolveLocal(info *types.Info, e ast.Expr, scope *ast.FuncLit, depth int) ast.Expr {
	if depth > 2 {
		return e
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return e
	}
	obj := info.Uses[id]
	if obj == nil {
		return e
	}
	var init ast.Expr
	writes := 0
	ast.Inspect(scope, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if info.Defs[lid] == obj || info.Uses[lid] == obj {
				writes++
				if as.Tok == token.DEFINE && len(as.Rhs) == len(as.Lhs) {
					init = as.Rhs[i]
				}
			}
		}
		return true
	})
	if writes == 1 && init != nil {
		return resolveLocal(info, init, scope, depth+1)
	}
	return e
}

// canonExpr renders e as a position-independent provenance string:
// parameters become $<index>, other expressions render structurally.
// Returns "" for shapes outside the canonical subset.
func canonExpr(info *types.Info, e ast.Expr, params map[types.Object]int) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil {
			if i, ok := params[obj]; ok {
				return fmt.Sprintf("$%d", i)
			}
			if _, isConst := obj.(*types.Const); isConst {
				if tv, ok := info.Types[e]; ok && tv.Value != nil {
					return tv.Value.ExactString()
				}
			}
		}
		return x.Name
	case *ast.BasicLit:
		return x.Value
	case *ast.SelectorExpr:
		base := canonExpr(info, x.X, params)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.IndexExpr:
		base := canonExpr(info, x.X, params)
		idx := canonExpr(info, x.Index, params)
		if base == "" || idx == "" {
			return ""
		}
		return base + "[" + idx + "]"
	case *ast.CallExpr:
		fn := canonExpr(info, x.Fun, params)
		if fn == "" {
			return ""
		}
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			if args[i] = canonExpr(info, a, params); args[i] == "" {
				return ""
			}
		}
		return fn + "(" + strings.Join(args, ",") + ")"
	case *ast.BinaryExpr:
		l, r := canonExpr(info, x.X, params), canonExpr(info, x.Y, params)
		if l == "" || r == "" {
			return ""
		}
		return "(" + l + x.Op.String() + r + ")"
	case *ast.TypeAssertExpr:
		base := canonExpr(info, x.X, params)
		if base == "" || x.Type == nil {
			return ""
		}
		return base + ".(" + types.ExprString(x.Type) + ")"
	case *ast.UnaryExpr:
		v := canonExpr(info, x.X, params)
		if v == "" {
			return ""
		}
		return x.Op.String() + v
	}
	return ""
}

// cardOf classifies the cardinality of e. steps bounds recursion on
// adversarial (fuzzed) inputs.
func cardOf(info *types.Info, e ast.Expr, params map[types.Object]int, steps *int) KeyCard {
	*steps++
	if *steps > 256 {
		return CardUnknown
	}
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return CardConst
	}
	// A boolean-typed key is two-valued no matter how data-dependent its
	// computation is.
	if t := info.TypeOf(e); t != nil {
		if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.Bool {
			return CardEnum
		}
	}
	switch x := e.(type) {
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil {
			if _, ok := params[obj]; ok {
				return CardData
			}
		}
	case *ast.BinaryExpr:
		if x.Op == token.REM {
			if tv, ok := info.Types[x.Y]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
				if n, exact := constant.Int64Val(tv.Value); exact && n > 0 {
					return CardEnum
				}
			}
		}
		if mentionsParam(info, e, params) {
			return CardData
		}
	case *ast.CallExpr:
		// Conversions pass cardinality through.
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return cardOf(info, x.Args[0], params, steps)
		}
		if mentionsParam(info, e, params) {
			return CardData
		}
	case *ast.IndexExpr:
		return cardOf(info, x.Index, params, steps)
	case *ast.SelectorExpr, *ast.TypeAssertExpr:
		if mentionsParam(info, e, params) {
			return CardData
		}
	}
	if mentionsParam(info, e, params) {
		return CardData
	}
	return CardUnknown
}

// boundOf reports the provable value-space size for CardEnum expressions
// (0 otherwise).
func boundOf(info *types.Info, e ast.Expr, params map[types.Object]int) int {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		return 1
	}
	if t := info.TypeOf(e); t != nil {
		if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.Bool {
			return 2
		}
	}
	switch x := e.(type) {
	case *ast.BinaryExpr:
		if x.Op == token.REM {
			if tv, ok := info.Types[x.Y]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
				if n, exact := constant.Int64Val(tv.Value); exact && n > 0 && n < 1<<20 {
					return int(n)
				}
			}
		}
	case *ast.CallExpr:
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return boundOf(info, x.Args[0], params)
		}
	case *ast.IndexExpr:
		return boundOf(info, x.Index, params)
	}
	return 0
}

// mentionsParam reports whether e reads any closure parameter.
func mentionsParam(info *types.Info, e ast.Expr, params map[types.Object]int) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		if obj := info.Uses[id]; obj != nil {
			if _, ok := params[obj]; ok {
				found = true
			}
		}
		return true
	})
	return found
}

// joinKeyExpr is the lattice join of two key summaries: provenance and
// type survive only when equal, cardinality joins to the weaker class with
// the summed bound (a closure emitting Pair{K:0} and Pair{K:1} has an
// enum-2 key space).
func joinKeyExpr(a, b KeyExpr) KeyExpr {
	out := KeyExpr{}
	if a.Canon == b.Canon {
		out.Canon = a.Canon
	}
	if a.Type != nil && b.Type != nil && types.Identical(a.Type, b.Type) {
		out.Type = a.Type
	}
	switch {
	case a.Card == b.Card:
		out.Card = a.Card
		out.Bound = a.Bound + b.Bound
		if a.Canon == b.Canon && a.Canon != "" {
			// Same source expression on both sides: the key spaces
			// coincide rather than accumulate. This also makes the join
			// idempotent, which the dataflow fixpoint needs — summing on
			// a loop-head self-join would grow the bound forever.
			out.Bound = max(a.Bound, b.Bound)
		}
		if a.Card == CardData || a.Card == CardUnknown {
			out.Bound = 0
		}
	case (a.Card == CardConst || a.Card == CardEnum) && (b.Card == CardConst || b.Card == CardEnum):
		out.Card = CardEnum
		out.Bound = a.Bound + b.Bound
	default:
		out.Card = CardUnknown
	}
	// Widening: bounds beyond any reportable size carry no information,
	// and capping them bounds the lattice height, so loops that keep
	// unioning fresh key spaces still converge.
	if out.Bound > keyBoundWiden {
		out.Card = CardUnknown
		out.Bound = 0
	}
	return out
}

// keyBoundWiden is the widening threshold for joined key-space bounds.
const keyBoundWiden = 1 << 16

// IdentityClosure reports whether lit is the identity transform — a single
// return statement handing back the sole parameter — which preserves
// records (and therefore key provenance) exactly.
func IdentityClosure(info *types.Info, lit *ast.FuncLit) bool {
	if lit == nil || lit.Body == nil || len(lit.Body.List) != 1 {
		return false
	}
	ret, ok := lit.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	id, ok := ast.Unparen(ret.Results[0]).(*ast.Ident)
	if !ok {
		return false
	}
	params := litParams(info, lit)
	if len(params) != 1 {
		return false
	}
	obj := info.Uses[id]
	_, isParam := params[obj]
	return obj != nil && isParam
}

// ConcreteKeyType reports whether t is a usable comparison anchor for
// keydrift: a non-nil, non-interface, non-invalid type. Interface-typed
// keys (`any`) carry no information about the dynamic key type.
func ConcreteKeyType(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.Invalid {
		return false
	}
	if _, ok := t.Underlying().(*types.Interface); ok {
		return false
	}
	return true
}
