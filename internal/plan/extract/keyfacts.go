package extract

import (
	"fmt"
	"go/ast"
	"reflect"
	"sort"

	"chopper/internal/lint"
	"chopper/internal/rdd"
)

// This file is the chopperkey side of the symbolic evaluator: while the
// interpreter replays a workload's Run method against the real rdd API, the
// keyTracker maintains an INDEPENDENT, method-name-driven model of every
// key-relevant fact — which RDDs are pair-keyed, where their key expression
// came from, how large its value space provably is, and which partitioner
// identity (if any) their output carries. The live rdd structs are consulted
// only for alignment (node IDs and op names); partitioner propagation and
// dependency kinds are PREDICTED from method semantics, and the key-fact
// drift gate (KeyDrift) checks the predictions against what the runtime
// actually built. If someone changes, say, MapValues to stop forwarding the
// partitioner, the model and the runtime disagree and the gate fails.

// KeyedState is the tri-state answer to "are this RDD's rows rdd.Pair?".
type KeyedState int8

// Keyed states.
const (
	KeyedUnknown KeyedState = iota
	KeyedNo
	KeyedYes
)

// String renders the state for diagnostics.
func (k KeyedState) String() string {
	switch k {
	case KeyedYes:
		return "yes"
	case KeyedNo:
		return "no"
	}
	return "unknown"
}

// KeyFacts is the per-RDD lattice element: everything the static analysis
// knows about one lineage node's key and partitioning.
type KeyFacts struct {
	ID int
	Op string

	// Keyed/Prov/Card/Bound describe the key expression: whether rows are
	// pairs, the canonical provenance of the K expression ("" unknown), and
	// the cardinality class of its value space.
	Keyed KeyedState
	Prov  string
	Card  lint.KeyCard
	Bound int

	// HasPart/Scheme/PartID predict the output partitioner: present or not,
	// its family ("hash"/"range"), and its identity. Identities are real
	// (from explicit partitioner arguments) or synthetic negatives (for the
	// fresh defaults resolvePartitioner mints per call); only their grouping
	// pattern is compared, never the absolute values.
	HasPart bool
	Scheme  string
	PartID  int64

	// DepKinds predicts the dependency kinds in Deps order: 'n' narrow,
	// 's' shuffle. The cogroup entries are the interesting ones — a parent
	// is predicted narrow iff the model says it carries the cogroup's
	// partitioner identity.
	DepKinds string
}

// keyTracker accumulates KeyFacts per RDD ID during symbolic evaluation.
type keyTracker struct {
	in      *interp
	facts   map[int]*KeyFacts
	nextSyn int64 // synthetic partitioner identities: -1, -2, ...
}

func newKeyTracker(in *interp) *keyTracker {
	return &keyTracker{in: in, facts: map[int]*KeyFacts{}}
}

// syn mints a fresh synthetic partitioner identity, modeling the fresh
// Partitioner (and fresh Identity) resolvePartitioner creates per call.
func (t *keyTracker) syn() int64 {
	t.nextSyn--
	return t.nextSyn
}

// jobFacts returns the facts of every lineage node of target, sorted by ID
// (creation order). Every node must have been tracked.
func (t *keyTracker) jobFacts(target *rdd.RDD) ([]KeyFacts, error) {
	lineage := target.Lineage()
	out := make([]KeyFacts, 0, len(lineage))
	for _, n := range lineage {
		f, ok := t.facts[n.ID]
		if !ok {
			return nil, fmt.Errorf("no key facts for RDD %d (%s)", n.ID, n.Op)
		}
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// note is called after every interpreted rdd method call with the evaluated
// receiver, the reflect-level arguments (evaluated exactly once — partitioner
// identities must not be re-minted), and the results.
func (t *keyTracker) note(call *ast.CallExpr, name string, recv reflect.Value, args []reflect.Value, out []val, env *scope) {
	switch r := recv.Interface().(type) {
	case *rdd.Context:
		t.noteContext(call, name, args, out)
	case *rdd.RDD:
		t.noteRDD(call, name, r, args, out, env)
	}
}

// firstRDDResult extracts the *rdd.RDD a transform returned.
func firstRDDResult(out []val) *rdd.RDD {
	for _, v := range out {
		if v.known && !v.isNil && v.rv.IsValid() {
			if r, ok := v.rv.Interface().(*rdd.RDD); ok {
				return r
			}
		}
	}
	return nil
}

// take collects the nodes the call created (lineage nodes without facts,
// in ID order) and asserts they match the expected op names — any mismatch
// means the static method model has drifted from the rdd implementation.
func (t *keyTracker) take(call *ast.CallExpr, result *rdd.RDD, ops ...string) []*rdd.RDD {
	if result == nil {
		t.in.bail(call.Pos(), "keyfacts: %s returned no RDD", calleeLabel(call))
	}
	var fresh []*rdd.RDD
	for _, n := range result.Lineage() {
		if _, ok := t.facts[n.ID]; !ok {
			fresh = append(fresh, n)
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].ID < fresh[j].ID })
	if len(fresh) != len(ops) {
		t.in.bail(call.Pos(), "keyfacts: %s created %d nodes, model expects %d", calleeLabel(call), len(fresh), len(ops))
	}
	for i, n := range fresh {
		if n.Op != ops[i] {
			t.in.bail(call.Pos(), "keyfacts: %s node %d has op %q, model expects %q", calleeLabel(call), i, n.Op, ops[i])
		}
	}
	return fresh
}

// parentFacts looks up the receiver's facts; a missing entry is a tracker
// coverage bug and aborts extraction.
func (t *keyTracker) parentFacts(call *ast.CallExpr, r *rdd.RDD) *KeyFacts {
	f, ok := t.facts[r.ID]
	if !ok {
		t.in.bail(call.Pos(), "keyfacts: receiver RDD %d (%s) was never tracked", r.ID, r.Op)
	}
	return f
}

// funcLitAt resolves the call's i-th argument to a function literal: either
// written inline or bound to a local variable the interpreter evaluated.
func (t *keyTracker) funcLitAt(call *ast.CallExpr, i int, env *scope) *ast.FuncLit {
	if i < 0 || i >= len(call.Args) {
		return nil
	}
	switch a := ast.Unparen(call.Args[i]).(type) {
	case *ast.FuncLit:
		return a
	case *ast.Ident:
		if env != nil {
			if v, ok := env.lookup(a.Name); ok {
				return v.lit
			}
		}
	}
	return nil
}

// partArg extracts an explicit partitioner argument, nil when absent.
func partArg(args []reflect.Value, i int) rdd.Partitioner {
	if i < 0 || i >= len(args) {
		return nil
	}
	v := args[i]
	if !v.IsValid() {
		return nil
	}
	if (v.Kind() == reflect.Interface || v.Kind() == reflect.Pointer) && v.IsNil() {
		return nil
	}
	p, _ := v.Interface().(rdd.Partitioner)
	return p
}

// intArg extracts an int argument (0 when unreadable).
func intArg(args []reflect.Value, i int) int {
	if i < 0 || i >= len(args) {
		return 0
	}
	v := args[i]
	if !v.IsValid() || !v.CanInt() {
		return 0
	}
	return int(v.Int())
}

// scanKey summarizes the key expressions of a closure's Pair literals.
func (t *keyTracker) scanKey(lit *ast.FuncLit) (lint.KeyExpr, bool) {
	if lit == nil {
		return lint.KeyExpr{}, false
	}
	return lint.ScanKeyExpr(t.in.info, lit)
}

// setKeyFrom copies a scanned key expression into facts.
func setKeyFrom(f *KeyFacts, k lint.KeyExpr) {
	f.Keyed = KeyedYes
	f.Prov = k.Canon
	f.Card = k.Card
	f.Bound = k.Bound
}

// inheritKey copies the key half (not the partitioner half) of the parent.
func inheritKey(f *KeyFacts, p *KeyFacts) {
	f.Keyed = p.Keyed
	f.Prov = p.Prov
	f.Card = p.Card
	f.Bound = p.Bound
}

// joinKeyFacts merges the key halves of two parents (union/join): facts
// survive only where the sides agree.
func joinKeyFacts(f *KeyFacts, a, b *KeyFacts) {
	if a.Keyed == b.Keyed {
		f.Keyed = a.Keyed
	}
	if a.Prov == b.Prov {
		f.Prov = a.Prov
	}
	if a.Card == b.Card && a.Bound == b.Bound {
		f.Card = a.Card
		f.Bound = a.Bound
	}
}

// noteContext models the three source constructors.
func (t *keyTracker) noteContext(call *ast.CallExpr, name string, args []reflect.Value, out []val) {
	switch name {
	case "Generate", "GenerateFloatPairs":
		op := ""
		if len(args) > 0 && args[0].Kind() == reflect.String {
			op = args[0].String()
		}
		nodes := t.take(call, firstRDDResult(out), op)
		f := &KeyFacts{ID: nodes[0].ID, Op: op}
		scan := t.scanKey
		if name == "GenerateFloatPairs" {
			scan = func(lit *ast.FuncLit) (lint.KeyExpr, bool) { return lint.ScanEmitKeyExpr(t.in.info, lit) }
		}
		if lit := t.funcLitAt(call, 3, nil); lit != nil {
			if k, ok := scan(lit); ok {
				setKeyFrom(f, k)
			} else {
				f.Keyed = KeyedNo
			}
		}
		t.facts[f.ID] = f
	case "Parallelize":
		nodes := t.take(call, firstRDDResult(out), "parallelize")
		t.facts[nodes[0].ID] = &KeyFacts{ID: nodes[0].ID, Op: "parallelize"}
	}
}

// noteRDD models one RDD transform. Methods that return the receiver
// (Persist/Cache) create no nodes; unknown lineage-building methods abort
// extraction rather than leaving untracked nodes behind.
func (t *keyTracker) noteRDD(call *ast.CallExpr, name string, recv *rdd.RDD, args []reflect.Value, out []val, env *scope) {
	switch name {
	case "Persist", "Cache":
		return

	case "Map", "MapCost", "MapFloat":
		// A MapFloat closure returns float64 scalars, so it builds no Pair
		// and its output gets no key fact.
		op, litIdx := "map", 0
		if name != "Map" {
			litIdx = 2
			if len(args) > 0 && args[0].Kind() == reflect.String {
				op = args[0].String()
			}
		}
		nodes := t.take(call, firstRDDResult(out), op)
		f := &KeyFacts{ID: nodes[0].ID, Op: op, DepKinds: "n"}
		par := t.parentFacts(call, recv)
		lit := t.funcLitAt(call, litIdx, env)
		switch {
		case lint.IdentityClosure(t.in.info, lit):
			inheritKey(f, par)
		default:
			if k, ok := t.scanKey(lit); ok {
				setKeyFrom(f, k)
			}
		}
		t.facts[f.ID] = f

	case "FlatMapFloatPairs":
		nodes := t.take(call, firstRDDResult(out), "flatMap")
		f := &KeyFacts{ID: nodes[0].ID, Op: "flatMap", DepKinds: "n"}
		if lit := t.funcLitAt(call, 0, env); lit != nil {
			if k, ok := lint.ScanEmitKeyExpr(t.in.info, lit); ok {
				setKeyFrom(f, k)
			}
		}
		t.facts[f.ID] = f

	case "MapFloatPairs":
		op := ""
		if len(args) > 0 && args[0].Kind() == reflect.String {
			op = args[0].String()
		}
		nodes := t.take(call, firstRDDResult(out), op)
		f := &KeyFacts{ID: nodes[0].ID, Op: op, DepKinds: "n"}
		switch k, same, ok := lint.ScanReturnKeyExpr(t.in.info, t.funcLitAt(call, 2, env)); {
		case same:
			inheritKey(f, t.parentFacts(call, recv))
		case ok:
			setKeyFrom(f, k)
		}
		t.facts[f.ID] = f

	case "Filter":
		nodes := t.take(call, firstRDDResult(out), "filter")
		f := &KeyFacts{ID: nodes[0].ID, Op: "filter", DepKinds: "n"}
		inheritKey(f, t.parentFacts(call, recv))
		t.facts[f.ID] = f

	case "FlatMap":
		nodes := t.take(call, firstRDDResult(out), "flatMap")
		f := &KeyFacts{ID: nodes[0].ID, Op: "flatMap", DepKinds: "n"}
		if k, ok := t.scanKey(t.funcLitAt(call, 0, env)); ok {
			setKeyFrom(f, k)
		}
		t.facts[f.ID] = f

	case "MapPartitions":
		op := ""
		if len(args) > 0 && args[0].Kind() == reflect.String {
			op = args[0].String()
		}
		nodes := t.take(call, firstRDDResult(out), op)
		f := &KeyFacts{ID: nodes[0].ID, Op: op, DepKinds: "n"}
		if k, ok := t.scanKey(t.funcLitAt(call, 2, env)); ok {
			// Unlike the lint rule, the tracker keeps the cardinality of
			// partition-level rewrites: a provable Pair{K: 0} per split is
			// exactly what lets cold-start seeding shrink the reduce side.
			setKeyFrom(f, k)
		}
		t.facts[f.ID] = f

	case "MapValues":
		nodes := t.take(call, firstRDDResult(out), "mapValues")
		par := t.parentFacts(call, recv)
		f := &KeyFacts{ID: nodes[0].ID, Op: "mapValues", DepKinds: "n",
			HasPart: par.HasPart, Scheme: par.Scheme, PartID: par.PartID}
		inheritKey(f, par)
		t.facts[f.ID] = f

	case "KeyBy":
		nodes := t.take(call, firstRDDResult(out), "keyBy")
		t.facts[nodes[0].ID] = &KeyFacts{ID: nodes[0].ID, Op: "keyBy", Keyed: KeyedYes, DepKinds: "n"}

	case "Keys", "Values":
		op := "keys"
		if name == "Values" {
			op = "values"
		}
		nodes := t.take(call, firstRDDResult(out), op)
		t.facts[nodes[0].ID] = &KeyFacts{ID: nodes[0].ID, Op: op, Keyed: KeyedNo, DepKinds: "n"}

	case "Coalesce", "Sample":
		op := "coalesce"
		if name == "Sample" {
			op = "sample"
		}
		nodes := t.take(call, firstRDDResult(out), op)
		f := &KeyFacts{ID: nodes[0].ID, Op: op, DepKinds: "n"}
		inheritKey(f, t.parentFacts(call, recv))
		t.facts[f.ID] = f

	case "Union":
		nodes := t.take(call, firstRDDResult(out), "union")
		f := &KeyFacts{ID: nodes[0].ID, Op: "union", DepKinds: "nn"}
		if other := rddArg(args, 0); other != nil {
			joinKeyFacts(f, t.parentFacts(call, recv), t.parentFacts(call, other))
		}
		t.facts[f.ID] = f

	case "PartitionBy", "Repartition", "CombineByKey", "ReduceByKey",
		"ReduceByKeyPart", "SumByKey", "GroupByKey", "AggregateByKey":
		t.noteShuffle(call, name, recv, args, out)

	case "SortByKey":
		nodes := t.take(call, firstRDDResult(out), "sortByKey", "sortPartition")
		par := t.parentFacts(call, recv)
		pid := t.syn() // fresh pending RangePartitioner
		sh := &KeyFacts{ID: nodes[0].ID, Op: "sortByKey", DepKinds: "s",
			HasPart: true, Scheme: string(rdd.SchemeRange), PartID: pid}
		inheritKey(sh, par)
		t.facts[sh.ID] = sh
		srt := &KeyFacts{ID: nodes[1].ID, Op: "sortPartition", DepKinds: "n",
			HasPart: true, Scheme: string(rdd.SchemeRange), PartID: pid}
		inheritKey(srt, par)
		t.facts[srt.ID] = srt

	case "Distinct":
		nodes := t.take(call, firstRDDResult(out), "distinctKey", "distinct", "values")
		keyed := &KeyFacts{ID: nodes[0].ID, Op: "distinctKey", Keyed: KeyedYes, DepKinds: "n"}
		t.facts[keyed.ID] = keyed
		sh := &KeyFacts{ID: nodes[1].ID, Op: "distinct", Keyed: KeyedYes, DepKinds: "s",
			HasPart: true, Scheme: string(rdd.SchemeHash), PartID: t.syn()}
		t.facts[sh.ID] = sh
		vals := &KeyFacts{ID: nodes[2].ID, Op: "values", Keyed: KeyedNo, DepKinds: "n"}
		t.facts[vals.ID] = vals

	case "CoGroup":
		nodes := t.take(call, firstRDDResult(out), "cogroup")
		t.noteCoGroupNode(call, nodes[0], recv, rddArg(args, 0), partArg(args, 1))

	case "Join":
		nodes := t.take(call, firstRDDResult(out), "cogroup", "join")
		cg := t.noteCoGroupNode(call, nodes[0], recv, rddArg(args, 0), partArg(args, 1))
		t.facts[nodes[1].ID] = &KeyFacts{ID: nodes[1].ID, Op: "join", Keyed: KeyedYes, DepKinds: "n",
			HasPart: true, Scheme: cg.Scheme, PartID: cg.PartID, Prov: cg.Prov, Card: cg.Card, Bound: cg.Bound}

	default:
		// A lineage-building method the model does not cover would leave
		// untracked nodes; fail loudly. Non-RDD-returning helpers (String,
		// Lineage) create nothing and pass through.
		if firstRDDResult(out) != nil {
			t.in.bail(call.Pos(), "keyfacts: rdd method %s is not modeled", name)
		}
	}
}

// shuffleArgIdx maps single-shuffle methods to (partitioner arg index,
// count arg index); -1 when the method has no such argument.
var shuffleArgIdx = map[string][2]int{
	"PartitionBy":     {0, -1},
	"Repartition":     {-1, 0},
	"CombineByKey":    {1, -1},
	"ReduceByKey":     {-1, 1},
	"ReduceByKeyPart": {1, -1},
	"SumByKey":        {0, -1},
	"GroupByKey":      {-1, 0},
	"AggregateByKey":  {-1, 3},
}

// shuffleOps maps method names to runtime op strings.
var shuffleOps = map[string]string{
	"PartitionBy": "partitionBy", "Repartition": "repartition",
	"CombineByKey": "combineByKey", "ReduceByKey": "reduceByKey",
	"ReduceByKeyPart": "reduceByKey", "SumByKey": "reduceByKey",
	"GroupByKey": "groupByKey", "AggregateByKey": "aggregateByKey",
}

// noteShuffle models the single-node hash shuffles: key facts pass through
// (shuffles repartition by key, they don't change it); the output carries
// the explicit partitioner's identity, or a fresh synthetic one for the
// per-call defaults resolvePartitioner mints.
func (t *keyTracker) noteShuffle(call *ast.CallExpr, name string, recv *rdd.RDD, args []reflect.Value, out []val) {
	op := shuffleOps[name]
	nodes := t.take(call, firstRDDResult(out), op)
	idx := shuffleArgIdx[name]
	f := &KeyFacts{ID: nodes[0].ID, Op: op, DepKinds: "s", HasPart: true, Scheme: string(rdd.SchemeHash)}
	if p := partArg(args, idx[0]); p != nil {
		f.Scheme = p.Name()
		f.PartID = p.Identity()
	} else {
		f.PartID = t.syn()
	}
	inheritKey(f, t.parentFacts(call, recv))
	t.facts[f.ID] = f
}

// noteCoGroupNode models the cogroup node shared by CoGroup and the join
// family: each parent is predicted narrow iff the model says it already
// carries the cogroup's partitioner identity.
func (t *keyTracker) noteCoGroupNode(call *ast.CallExpr, node *rdd.RDD, recv, other *rdd.RDD, p rdd.Partitioner) *KeyFacts {
	if other == nil {
		t.in.bail(call.Pos(), "keyfacts: %s has no statically known other side", calleeLabel(call))
	}
	f := &KeyFacts{ID: node.ID, Op: "cogroup", Keyed: KeyedYes, HasPart: true, Scheme: string(rdd.SchemeHash)}
	if p != nil {
		f.Scheme = p.Name()
		f.PartID = p.Identity()
	} else {
		f.PartID = t.syn()
	}
	left, right := t.parentFacts(call, recv), t.parentFacts(call, other)
	kinds := ""
	for _, par := range []*KeyFacts{left, right} {
		if par.HasPart && par.PartID == f.PartID {
			kinds += "n"
		} else {
			kinds += "s"
		}
	}
	f.DepKinds = kinds
	if left.Prov == right.Prov {
		f.Prov = left.Prov
	}
	if left.Card == right.Card && left.Bound == right.Bound {
		f.Card = left.Card
		f.Bound = left.Bound
	}
	t.facts[f.ID] = f
	return f
}

// rddArg extracts an *rdd.RDD argument.
func rddArg(args []reflect.Value, i int) *rdd.RDD {
	if i < 0 || i >= len(args) || !args[i].IsValid() {
		return nil
	}
	r, _ := args[i].Interface().(*rdd.RDD)
	return r
}
