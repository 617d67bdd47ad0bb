package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"chopper/internal/lint/ssa"
)

// This file implements the chopperkey rule family: flow-sensitive key
// provenance tracking over RDD pipelines. The analysis abstractly executes
// every RDD method chain in a function body on the SSA-lite CFG, carrying
// per-variable key summaries (KeyExpr from keyexpr.go) and live partitionBy
// sites, and derives three rules from the one fixpoint:
//
//	keydrift     — the two sides of a join/cogroup compute keys of
//	               provably different concrete types; hash partitioning
//	               can never co-locate equal keys across the sides
//	shufflewaste — a partitionBy whose partitioning is discarded by a
//	               Part-dropping transform before any partitioning-
//	               dependent operation consumes it
//	constkey     — the key feeding a shuffle is provably constant or
//	               enum-small, collapsing the data into a handful of
//	               partitions
//
// Facts mirror the runtime Part-propagation rules of internal/rdd exactly:
// only MapValues, Persist and Cache carry a partitioner through; every
// other narrow transform drops it, and every shuffle replaces it.

// KeyDriftRule flags joins whose sides disagree on the concrete key type.
var KeyDriftRule = &Analyzer{
	Name: "keydrift",
	Doc:  "forbid joins whose sides compute keys of divergent concrete types",
	Run:  keyflowRule("keydrift"),
}

// ShuffleWaste flags partitionBy calls whose partitioning is provably
// discarded before anything depends on it.
var ShuffleWaste = &Analyzer{
	Name: "shufflewaste",
	Doc:  "forbid partitionBy whose partitioning is discarded before any partitioning-dependent op",
	Run:  keyflowRule("shufflewaste"),
}

// ConstKey flags shuffles over provably constant or enum-small keys.
var ConstKey = &Analyzer{
	Name: "constkey",
	Doc:  "forbid shuffles whose key is provably constant or enum-small",
	Run:  keyflowRule("constkey"),
}

// constKeyEnumMax is the largest provable key-space size constkey reports:
// beyond this the collapse is a tuning question, not a bug.
const constKeyEnumMax = 8

// keyflowRule adapts the shared analysis to one rule name.
func keyflowRule(rule string) func(f *File) []Diagnostic {
	return func(f *File) []Diagnostic {
		if f.Info == nil {
			return nil
		}
		var diags []Diagnostic
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ev := keyflowFunc(f, ssa.BuildFunc(f.Fset, f.Info, fd))
			for _, d := range ev.report(f, rule) {
				diags = append(diags, d)
			}
		}
		return diags
	}
}

// keyState is what the analysis knows about one RDD-typed value.
type keyState struct {
	isRDD bool
	key   KeyExpr
	// sites holds the positions of partitionBy calls whose partitioning is
	// still live (carried by this value) on the current path.
	sites map[token.Pos]bool
}

func cloneSites(in map[token.Pos]bool) map[token.Pos]bool {
	if len(in) == 0 {
		return nil
	}
	out := make(map[token.Pos]bool, len(in))
	for k := range in {
		out[k] = true
	}
	return out
}

// keyFlowFacts maps tracked variables to their key summaries. nil is
// bottom (unreached).
type keyFlowFacts map[*types.Var]keyState

func cloneKeyFacts(in keyFlowFacts) keyFlowFacts {
	out := keyFlowFacts{}
	for v, s := range in {
		s.sites = cloneSites(s.sites)
		out[v] = s
	}
	return out
}

func joinKeyState(a, b keyState) keyState {
	out := keyState{isRDD: a.isRDD || b.isRDD, key: joinKeyExpr(a.key, b.key)}
	if len(a.sites)+len(b.sites) > 0 {
		out.sites = map[token.Pos]bool{}
		for p := range a.sites {
			out.sites[p] = true
		}
		for p := range b.sites {
			out.sites[p] = true
		}
	}
	return out
}

func equalKeyState(a, b keyState) bool {
	if a.isRDD != b.isRDD || a.key.Canon != b.key.Canon ||
		a.key.Card != b.key.Card || a.key.Bound != b.key.Bound ||
		len(a.sites) != len(b.sites) {
		return false
	}
	if (a.key.Type == nil) != (b.key.Type == nil) {
		return false
	}
	if a.key.Type != nil && !types.Identical(a.key.Type, b.key.Type) {
		return false
	}
	for p := range a.sites {
		if !b.sites[p] {
			return false
		}
	}
	return true
}

// siteInfo accumulates the fate of one partitionBy site across the whole
// function: which ops discarded its partitioning, and whether anything
// depended on (or might depend on) it.
type siteInfo struct {
	pos     token.Pos
	killOps []string
	benefit bool
	escape  bool
}

// keyEvents collects rule events during the post-fixpoint replay.
type keyEvents struct {
	diags []Diagnostic
	sites map[token.Pos]*siteInfo
}

func (ev *keyEvents) site(pos token.Pos) *siteInfo {
	s, ok := ev.sites[pos]
	if !ok {
		s = &siteInfo{pos: pos}
		ev.sites[pos] = s
	}
	return s
}

func (ev *keyEvents) kill(st keyState, op string) {
	for pos := range st.sites {
		s := ev.site(pos)
		s.killOps = append(s.killOps, op)
	}
}

func (ev *keyEvents) benefit(st keyState) {
	for pos := range st.sites {
		ev.site(pos).benefit = true
	}
}

func (ev *keyEvents) escape(st keyState) {
	for pos := range st.sites {
		ev.site(pos).escape = true
	}
}

// report filters the collected events down to one rule's diagnostics.
func (ev *keyEvents) report(f *File, rule string) []Diagnostic {
	var out []Diagnostic
	for _, d := range ev.diags {
		if d.Rule == rule {
			out = append(out, d)
		}
	}
	if rule != "shufflewaste" {
		return out
	}
	for _, s := range ev.sites {
		if len(s.killOps) == 0 || s.benefit || s.escape {
			continue
		}
		out = append(out, f.diag(s.pos, "shufflewaste",
			fmt.Sprintf("partitionBy is wasted: %s drops the partitioning before any partitioning-dependent operation uses it", s.killOps[0])))
	}
	return out
}

// keyflowFunc runs the fixpoint and replays each block once from its
// converged in-fact, collecting rule events.
func keyflowFunc(f *File, fn *ssa.Func) *keyEvents {
	analysis := &ssa.Analysis[keyFlowFacts]{
		Dir:    ssa.Forward,
		Bottom: func() keyFlowFacts { return nil },
		Entry:  func() keyFlowFacts { return keyFlowFacts{} },
		Join: func(a, b keyFlowFacts) keyFlowFacts {
			if a == nil {
				return b
			}
			if b == nil {
				return a
			}
			out := keyFlowFacts{}
			for v, sa := range a {
				if sb, ok := b[v]; ok {
					out[v] = joinKeyState(sa, sb)
				} else {
					sa.sites = cloneSites(sa.sites)
					out[v] = sa
				}
			}
			for v, sb := range b {
				if _, ok := a[v]; !ok {
					sb.sites = cloneSites(sb.sites)
					out[v] = sb
				}
			}
			return out
		},
		Equal: func(a, b keyFlowFacts) bool {
			if (a == nil) != (b == nil) || len(a) != len(b) {
				return false
			}
			for v, sa := range a {
				sb, ok := b[v]
				if !ok || !equalKeyState(sa, sb) {
					return false
				}
			}
			return true
		},
		Transfer: func(b *ssa.Block, in keyFlowFacts) keyFlowFacts {
			if in == nil {
				return nil
			}
			out := cloneKeyFacts(in)
			for _, node := range b.Nodes {
				applyKeyflowNode(f, node, out, nil)
			}
			return out
		},
	}
	res := analysis.Solve(fn)

	ev := &keyEvents{sites: map[token.Pos]*siteInfo{}}
	for _, b := range fn.Blocks {
		in := res.In[b.Index]
		if in == nil {
			continue
		}
		facts := cloneKeyFacts(in)
		for _, node := range b.Nodes {
			applyKeyflowNode(f, node, facts, ev)
		}
	}
	return ev
}

// applyKeyflowNode advances the facts across one block node. With ev set
// (replay mode) it additionally records rule events, including escapes of
// tracked values into closures, returns, or unknown calls.
func applyKeyflowNode(f *File, node ast.Node, facts keyFlowFacts, ev *keyEvents) {
	consumed := map[ast.Node]bool{}
	lhsIdents := map[*ast.Ident]bool{}

	// Pass 1: assignments establish or kill per-variable facts.
	ssa.InspectShallow(node, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				lhsIdents[id] = true
			}
		}
		if len(as.Lhs) != len(as.Rhs) {
			for _, lhs := range as.Lhs {
				if v := assignVar(f, lhs); v != nil {
					delete(facts, v)
				}
			}
			return true
		}
		for i, rhs := range as.Rhs {
			v := assignVar(f, as.Lhs[i])
			if v == nil {
				continue
			}
			if isRDDValue(f, rhs) {
				facts[v] = evalRDDExpr(f, rhs, facts, ev, consumed)
			} else {
				delete(facts, v)
			}
		}
		return true
	})

	// Pass 2: evaluate remaining top-level RDD chains (actions, chains whose
	// result is discarded or feeds a multi-value assignment).
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil || consumed[n] {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if ce, ok := n.(*ast.CallExpr); ok {
			if m := rddMethodOf(f, ce); m != "" {
				evalRDDExpr(f, ce, facts, ev, consumed)
				return false
			}
		}
		return true
	}
	ast.Inspect(node, walk)

	// Pass 3 (replay only): any remaining read of a tracked variable is an
	// escape — the value flows somewhere the analysis cannot follow (helper
	// call, return, struct field, closure capture), so its partitioning may
	// still be consumed there.
	if ev == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if n != node && consumed[n] {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || lhsIdents[id] {
			return true
		}
		v, ok := objOf(f.Info, id).(*types.Var)
		if !ok {
			return true
		}
		if st, tracked := facts[v]; tracked {
			ev.escape(st)
		}
		return true
	})
}

// isRDDValue reports whether e's static type is *rdd.RDD.
func isRDDValue(f *File, e ast.Expr) bool {
	t := f.typeOf(e)
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "RDD" && obj.Pkg() != nil &&
		obj.Pkg().Path() == "chopper/internal/rdd"
}

// rddMethodOf resolves a call to the name of the rdd.RDD / rdd.Context
// method it invokes, or "" when the call is anything else.
func rddMethodOf(f *File, ce *ast.CallExpr) string {
	sel, ok := ast.Unparen(ce.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := objOf(f.Info, sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "chopper/internal/rdd" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return fn.Name()
}

// keyActionMethods are the RDD actions: they consume the receiver's
// partitioning state (a live partitionBy reaching an action is not waste —
// the analysis cannot prove the action's plan ignores it).
var keyActionMethods = map[string]bool{
	"Collect": true, "Count": true, "Reduce": true, "Take": true,
	"First": true, "CollectPairsMap": true, "CountByKey": true,
	"TakeSample": true, "SumFloat": true, "TopByKey": true,
}

// keyShuffleMethods maps each shuffle transform to the index of its
// function-literal argument (-1: none). Shuffles preserve the key domain,
// drop prior partitioning, and are where constkey fires.
var keyShuffleMethods = map[string]bool{
	"ReduceByKey": true, "ReduceByKeyPart": true, "SumByKey": true, "CombineByKey": true,
	"GroupByKey": true, "AggregateByKey": true, "SortByKey": true,
	"Distinct": true, "PartitionBy": true, "Repartition": true,
}

// keyCogroupMethods are the two-input key-matching transforms where
// keydrift fires and partitioning pays off.
var keyCogroupMethods = map[string]bool{"Join": true, "CoGroup": true}

// evalRDDExpr abstractly evaluates an RDD-producing (or action) expression,
// recording events when ev is non-nil. Every sub-expression it interprets
// is marked consumed so the escape scan skips it.
func evalRDDExpr(f *File, e ast.Expr, facts keyFlowFacts, ev *keyEvents, consumed map[ast.Node]bool) keyState {
	consumed[e] = true
	switch x := e.(type) {
	case *ast.ParenExpr:
		return evalRDDExpr(f, x.X, facts, ev, consumed)
	case *ast.Ident:
		if v, ok := objOf(f.Info, x).(*types.Var); ok {
			if st, tracked := facts[v]; tracked {
				return st
			}
		}
		return keyState{isRDD: isRDDValue(f, e)}
	case *ast.CallExpr:
		m := rddMethodOf(f, x)
		if m == "" {
			return keyState{}
		}
		sel := ast.Unparen(x.Fun).(*ast.SelectorExpr)
		consumed[x.Fun] = true
		if m == "Generate" || m == "GenerateFloatPairs" || m == "Parallelize" {
			consumed[sel.X] = true
			return evalSourceCall(f, m, x)
		}
		recv := evalRDDExpr(f, sel.X, facts, ev, consumed)
		return applyRDDMethod(f, m, x, recv, facts, ev, consumed)
	}
	return keyState{}
}

// evalSourceCall models ctx.Generate / ctx.GenerateFloatPairs /
// ctx.Parallelize: a fresh RDD whose key summary comes from the generator
// closure's Pair literals or emit calls.
func evalSourceCall(f *File, method string, call *ast.CallExpr) keyState {
	st := keyState{isRDD: true}
	scan := ScanKeyExpr
	if method == "GenerateFloatPairs" {
		scan = ScanEmitKeyExpr
	}
	if method != "Parallelize" && len(call.Args) == 4 {
		if lit, ok := ast.Unparen(call.Args[3]).(*ast.FuncLit); ok {
			if k, ok := scan(f.Info, lit); ok {
				st.key = k
			}
		}
	}
	return st
}

// funcLitArg returns the function literal at argument index i, if the call
// passes one directly.
func funcLitArg(call *ast.CallExpr, i int) *ast.FuncLit {
	if i < 0 || i >= len(call.Args) {
		return nil
	}
	lit, _ := ast.Unparen(call.Args[i]).(*ast.FuncLit)
	return lit
}

// applyRDDMethod is the transfer function for one RDD method call: it maps
// the receiver summary to the result summary, mirroring the runtime's Part
// propagation, and records keydrift/constkey/shufflewaste events.
func applyRDDMethod(f *File, m string, call *ast.CallExpr, recv keyState, facts keyFlowFacts, ev *keyEvents, consumed map[ast.Node]bool) keyState {
	out := keyState{isRDD: true}
	switch {
	case m == "Persist" || m == "Cache":
		return recv

	case m == "MapValues":
		// The only narrow transform that carries the partitioner through.
		return recv

	case m == "Map" || m == "MapCost" || m == "Filter" || m == "FlatMap" ||
		m == "Coalesce" || m == "Sample" || m == "MapFloat" || m == "FlatMapFloatPairs" ||
		m == "MapFloatPairs":
		if ev != nil {
			ev.kill(recv, methodDisplay(m))
		}
		litIdx := 0
		if m == "MapCost" || m == "MapFloat" || m == "MapFloatPairs" {
			litIdx = 2
		}
		switch {
		case m == "Filter" || m == "Coalesce" || m == "Sample":
			// Records pass through unchanged; only the partitioner is lost.
			out.key = recv.key
		case m == "FlatMapFloatPairs":
			if k, ok := ScanEmitKeyExpr(f.Info, funcLitArg(call, 0)); ok {
				out.key = k
			}
		case m == "MapFloatPairs":
			switch k, same, ok := ScanReturnKeyExpr(f.Info, funcLitArg(call, litIdx)); {
			case same:
				out.key = recv.key
			case ok:
				out.key = k
			}
		case IdentityClosure(f.Info, funcLitArg(call, litIdx)):
			out.key = recv.key
		default:
			if k, ok := ScanKeyExpr(f.Info, funcLitArg(call, litIdx)); ok {
				out.key = k
			}
		}
		return out

	case m == "MapPartitions":
		if ev != nil {
			ev.kill(recv, "mapPartitions")
		}
		// Partition-level rewrites (partial aggregation emitting one pair
		// per split) intentionally use tiny key spaces; keep the key type
		// for drift checking but drop the cardinality claim.
		if k, ok := ScanKeyExpr(f.Info, funcLitArg(call, 2)); ok {
			k.Card = CardUnknown
			k.Bound = 0
			out.key = k
		}
		return out

	case m == "KeyBy" || m == "Keys" || m == "Values":
		if ev != nil {
			ev.kill(recv, methodDisplay(m))
		}
		return out

	case m == "Union":
		other := evalArgRDD(f, call, 0, facts, ev, consumed)
		if ev != nil {
			ev.kill(recv, "union")
			ev.kill(other, "union")
		}
		out.key = joinKeyExpr(recv.key, other.key)
		return out

	case keyShuffleMethods[m]:
		if ev != nil {
			ev.kill(recv, methodDisplay(m))
			constKeyCheck(f, ev, call.Pos(), recv.key, methodDisplay(m), "")
		}
		out.key = recv.key
		if m == "PartitionBy" {
			out.sites = map[token.Pos]bool{call.Pos(): true}
			if ev != nil {
				ev.site(call.Pos())
			}
		}
		return out

	case keyCogroupMethods[m]:
		other := evalArgRDD(f, call, 0, facts, ev, consumed)
		if ev != nil {
			ev.benefit(recv)
			ev.benefit(other)
			op := methodDisplay(m)
			constKeyCheck(f, ev, call.Pos(), recv.key, op, "receiver ")
			constKeyCheck(f, ev, call.Pos(), other.key, op, "argument ")
			if ConcreteKeyType(recv.key.Type) && ConcreteKeyType(other.key.Type) &&
				!types.Identical(recv.key.Type, other.key.Type) {
				ev.diags = append(ev.diags, f.diag(call.Pos(), "keydrift",
					fmt.Sprintf("%s sides compute divergent key types: receiver key is %s%s, argument key is %s%s; equal keys can never co-locate",
						op, recv.key.Type, canonNote(recv.key), other.key.Type, canonNote(other.key))))
			}
		}
		out.key = joinKeyExpr(recv.key, other.key)
		return out

	case keyActionMethods[m]:
		if ev != nil {
			ev.benefit(recv)
		}
		return keyState{}
	}
	// Unknown rdd method (String, Lineage, ...): neutral, untracked result.
	return keyState{}
}

// evalArgRDD evaluates the call's i-th argument as an RDD expression.
func evalArgRDD(f *File, call *ast.CallExpr, i int, facts keyFlowFacts, ev *keyEvents, consumed map[ast.Node]bool) keyState {
	if i >= len(call.Args) {
		return keyState{}
	}
	return evalRDDExpr(f, call.Args[i], facts, ev, consumed)
}

// constKeyCheck records a constkey event when the key feeding a shuffle is
// provably constant or enum-small.
func constKeyCheck(f *File, ev *keyEvents, pos token.Pos, k KeyExpr, op, side string) {
	switch {
	case k.Card == CardConst:
		ev.diags = append(ev.diags, f.diag(pos, "constkey",
			fmt.Sprintf("%skey of %s is provably constant%s; every record lands in one partition", side, op, canonNote(k))))
	case k.Card == CardEnum && k.Bound > 0 && k.Bound <= constKeyEnumMax:
		ev.diags = append(ev.diags, f.diag(pos, "constkey",
			fmt.Sprintf("%skey of %s ranges over at most %d values%s; the shuffle collapses data into %d partitions", side, op, k.Bound, canonNote(k), k.Bound)))
	}
}

// canonNote renders the key provenance as a parenthetical, when known.
func canonNote(k KeyExpr) string {
	if k.Canon == "" {
		return ""
	}
	return fmt.Sprintf(" (from %s)", k.Canon)
}

// methodDisplay maps method names to the runtime op strings used in
// diagnostics (matching the op labels in stage plans).
func methodDisplay(m string) string {
	switch m {
	case "MapCost", "MapFloat", "MapFloatPairs":
		return "map"
	case "FlatMapFloatPairs":
		return "flatMap"
	case "ReduceByKeyPart", "SumByKey":
		return "reduceByKey"
	}
	if m == "" {
		return m
	}
	return string(m[0]|0x20) + m[1:]
}
