package ckfix

import "chopper/internal/rdd"

// ConstReduce keys every record with the literal 0 before reducing: the
// shuffle funnels the whole dataset into a single partition.
func ConstReduce(ctx *rdd.Context) *rdd.RDD {
	rows := ctx.Generate("constRows", 0, 1<<20, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: 0, V: 1.0}}
	})
	return rows.ReduceByKey(func(a, b any) any { return a.(float64) + b.(float64) }, 300)
}

// ModuloGroup keys by split%4: at most four distinct keys, so grouping at
// any parallelism collapses into four partitions.
func ModuloGroup(ctx *rdd.Context) *rdd.RDD {
	rows := ctx.Generate("modRows", 0, 1<<20, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: split % 4, V: 1.0}}
	})
	return rows.GroupByKey(300)
}

// BoolFlagShuffle keys by a boolean derived per record: a two-value key
// space feeding a shuffle.
func BoolFlagShuffle(ctx *rdd.Context) *rdd.RDD {
	rows := ctx.Generate("flagRows", 0, 1<<20, func(split, total int) []rdd.Row {
		big := split > 100
		return []rdd.Row{rdd.Pair{K: big, V: 1.0}}
	})
	return rows.GroupByKey(300)
}

// ConstSum is ConstReduce through SumByKey, which takes no closure: the
// rule must know the method by name.
func ConstSum(ctx *rdd.Context) *rdd.RDD {
	rows := ctx.Generate("constRows", 0, 1<<20, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: 0, V: 1.0}}
	})
	return rows.SumByKey(nil)
}

// TypedModuloSum re-keys typed pairs by k%4 in a MapFloatPairs closure:
// the key is the first result of its return, and four values of it feed
// the shuffle.
func TypedModuloSum(ctx *rdd.Context) *rdd.RDD {
	rows := ctx.GenerateFloatPairs("typedRows", 0, 1<<20, func(split, total int, emit func(int, float64)) {
		emit(split, 1)
	})
	return rows.MapFloatPairs("bucket", 1.0, func(k int, v float64) (int, float64, bool) {
		return k % 4, v, true
	}).SumByKey(nil)
}

// TypedConstSum emits the constant key 0 from a typed source, and the
// MapFloatPairs filter passes it through unchanged.
func TypedConstSum(ctx *rdd.Context) *rdd.RDD {
	rows := ctx.GenerateFloatPairs("typedConst", 0, 1<<20, func(split, total int, emit func(int, float64)) {
		emit(0, float64(split))
	})
	return rows.MapFloatPairs("filter", 0.4, func(k int, v float64) (int, float64, bool) {
		return k, v, v > 0
	}).SumByKey(nil)
}

// TypedJoinConstSum sends every match's share to key 0: the typed join's
// flatMap emits a constant key into SumByKey.
func TypedJoinConstSum(ctx *rdd.Context) *rdd.RDD {
	links := ctx.Generate("links", 0, 1<<20, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: split, V: 1.0}}
	})
	ranks := links.MapFloatValues(func(v float64) float64 { return v / 2 })
	return links.JoinFlatMapFloatPairs(ranks, nil, func(_ int, _ rdd.Row, rank float64, emit func(int, float64)) {
		emit(0, rank)
	}).SumByKey(nil)
}
