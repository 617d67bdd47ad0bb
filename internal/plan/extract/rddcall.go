package extract

import (
	"go/ast"
	"go/types"
	"reflect"

	"chopper/internal/rdd"
)

// actionNames are the rdd methods that submit jobs. The evaluator never
// invokes them (the context has no runner); it records the lineage they
// would submit and models their results as unknown data with a nil error.
var actionNames = map[string]bool{
	"Collect": true, "Count": true, "CollectPairsMap": true,
	"SumFloat": true, "TopByKey": true,
}

// rddPackageFuncs are the package-level rdd constructors workloads call
// with statically known arguments.
var rddPackageFuncs = map[string]reflect.Value{
	"chopper/internal/rdd.NewHashPartitioner": reflect.ValueOf(rdd.NewHashPartitioner),
}

// evalCall evaluates a call expression to its result values.
func (in *interp) evalCall(call *ast.CallExpr, env *scope) []val {
	// Type conversions: int64(x), float64(x), ...
	if tv, ok := in.info.Types[call.Fun]; ok && tv.IsType() {
		return []val{in.evalConversion(call, tv.Type, env)}
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := in.info.Uses[id].(*types.Builtin); ok {
			return []val{in.evalBuiltin(call, b.Name(), env)}
		}
	}
	// Method calls on known receivers: the real rdd API (and anything else
	// reachable by reflection, e.g. partitioner methods).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := in.info.Uses[sel.Sel].(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			return in.evalMethodCall(call, sel, env)
		}
	}
	// Package-level functions.
	if name := calleeFullName(in.info, call); name != "" {
		if fv, ok := rddPackageFuncs[name]; ok {
			return in.invoke(call, fv, env)
		}
	}
	return in.opaqueCall(call, env)
}

func (in *interp) evalConversion(call *ast.CallExpr, target types.Type, env *scope) val {
	if len(call.Args) != 1 {
		return unknown()
	}
	v := in.evalExpr(call.Args[0], env)
	if !v.known || v.isNil {
		return unknown()
	}
	rt := basicReflectType(target)
	if rt == nil || !v.rv.Type().ConvertibleTo(rt) {
		return unknown()
	}
	return knownRV(v.rv.Convert(rt))
}

func (in *interp) evalBuiltin(call *ast.CallExpr, name string, env *scope) val {
	switch name {
	case "len", "cap":
		if len(call.Args) != 1 {
			return unknown()
		}
		v := in.evalExpr(call.Args[0], env)
		if v.known && !v.isNil {
			switch v.rv.Kind() {
			case reflect.Slice, reflect.Array, reflect.Map, reflect.String, reflect.Chan:
				return known(v.rv.Len())
			}
		}
		return unknown()
	}
	// make/append/new/copy/delete produce or mutate driver-side data only.
	in.guardArgs(call, env)
	return unknown()
}

// evalMethodCall dispatches a method call: rdd actions are intercepted,
// everything on a known receiver goes through reflection, and calls on
// unknown receivers are opaque — unless they would build lineage, which
// makes the plan unextractable.
func (in *interp) evalMethodCall(call *ast.CallExpr, sel *ast.SelectorExpr, env *scope) []val {
	recv := in.evalExpr(sel.X, env)
	name := sel.Sel.Name
	if !recv.known || recv.isNil {
		return in.opaqueCall(call, env)
	}
	if r, ok := recv.rv.Interface().(*rdd.RDD); ok && actionNames[name] {
		in.guardArgs(call, env)
		in.jobs = append(in.jobs, symJob{action: name, target: r})
		return in.actionResults(recv.rv, name)
	}
	m := recv.rv.MethodByName(name)
	if !m.IsValid() {
		return in.opaqueCall(call, env)
	}
	out, args := in.invokeWithArgs(call, m, env)
	in.keys.note(call, name, recv.rv, args, out, env)
	return out
}

// actionResults models an intercepted action's return values: unknown data
// plus a nil error (the evaluator follows the success path; failures are a
// runtime property no static plan depends on).
func (in *interp) actionResults(recv reflect.Value, name string) []val {
	mt := recv.MethodByName(name).Type()
	out := make([]val, mt.NumOut())
	errType := reflect.TypeOf((*error)(nil)).Elem()
	for i := range out {
		if mt.Out(i) == errType {
			out[i] = knownNil()
		} else {
			out[i] = unknown()
		}
	}
	return out
}

// invoke calls a real function/method via reflection. Function-literal
// arguments become stubs of the parameter's type (transforms are lazy;
// their closures never run during extraction); every other argument must
// be statically known.
func (in *interp) invoke(call *ast.CallExpr, fn reflect.Value, env *scope) []val {
	out, _ := in.invokeWithArgs(call, fn, env)
	return out
}

// invokeWithArgs is invoke exposed with the evaluated argument values, so
// the key tracker can inspect partitioner/count arguments without
// re-evaluating them (re-evaluation would mint duplicate partitioner
// identities).
func (in *interp) invokeWithArgs(call *ast.CallExpr, fn reflect.Value, env *scope) ([]val, []reflect.Value) {
	ft := fn.Type()
	if ft.IsVariadic() || ft.NumIn() != len(call.Args) {
		in.bail(call.Pos(), "call arity/variadic shape not modeled")
	}
	args := make([]reflect.Value, len(call.Args))
	for i, a := range call.Args {
		pt := ft.In(i)
		if pt.Kind() == reflect.Func {
			args[i] = stubFunc(pt)
			continue
		}
		v := in.evalExpr(a, env)
		switch {
		case v.isNil:
			args[i] = reflect.Zero(pt)
		case !v.known:
			in.bail(a.Pos(), "argument %d of %s is not statically known", i, calleeLabel(call))
		case v.rv.Type().AssignableTo(pt):
			args[i] = v.rv
		case v.rv.Type().ConvertibleTo(pt) && pt.Kind() != reflect.Interface:
			args[i] = v.rv.Convert(pt)
		default:
			in.bail(a.Pos(), "argument %d of %s has unassignable type %s", i, calleeLabel(call), v.rv.Type())
		}
	}
	res := fn.Call(args)
	out := make([]val, len(res))
	for i, r := range res {
		out[i] = knownRV(r)
	}
	return out, args
}

// stubFunc builds a no-op closure of the given func type, returning zero
// values. Stubs populate RDD compute/filter slots; plan construction never
// calls them.
func stubFunc(t reflect.Type) reflect.Value {
	return reflect.MakeFunc(t, func([]reflect.Value) []reflect.Value {
		out := make([]reflect.Value, t.NumOut())
		for i := range out {
			out[i] = reflect.Zero(t.Out(i))
		}
		return out
	})
}

// opaqueCall models a call the evaluator does not interpret (driver-side
// helpers, sort.Slice, fmt.Errorf): all results unknown. If the call or
// its arguments would build lineage, skipping it would silently lose
// stages — abort instead.
func (in *interp) opaqueCall(call *ast.CallExpr, env *scope) []val {
	if t := in.info.TypeOf(call.Fun); t != nil && typeMentionsRDD(t) {
		in.bail(call.Pos(), "%s involves the rdd API but its receiver is not statically known", calleeLabel(call))
	}
	in.guardArgs(call, env)
	n := 1
	if sig, ok := in.info.TypeOf(call.Fun).(*types.Signature); ok {
		n = sig.Results().Len()
	}
	out := make([]val, n)
	for i := range out {
		out[i] = unknown()
	}
	return out
}

// guardArgs refuses calls whose argument expressions build lineage the
// evaluator would otherwise discard (e.g. log(r.Count())).
func (in *interp) guardArgs(call *ast.CallExpr, env *scope) {
	for _, a := range call.Args {
		if _, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			continue // closures are lazy; their bodies never run here
		}
		if in.containsRDDOps(a) {
			in.bail(a.Pos(), "argument of %s builds RDD lineage inside an uninterpreted call", calleeLabel(call))
		}
	}
}

// calleeLabel renders a short name for diagnostics.
func calleeLabel(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
