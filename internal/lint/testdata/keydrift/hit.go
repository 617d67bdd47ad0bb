package kdfix

import (
	"fmt"

	"chopper/internal/rdd"
)

// BuildJoin keys the orders side by the raw split index (int) but the names
// side by its string rendering: hash partitioning can never co-locate the
// nominally-same key across the sides.
func BuildJoin(ctx *rdd.Context) *rdd.RDD {
	orders := ctx.Generate("orders", 0, 1<<20, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: split, V: 1.0}}
	})
	names := ctx.Generate("names", 0, 1<<20, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: fmt.Sprint(split), V: split}}
	})
	return orders.Join(names, nil)
}

// RekeyedCoGroup drifts mid-pipeline: one side is re-keyed to a string by a
// map while the other keeps the original int key.
func RekeyedCoGroup(ctx *rdd.Context) *rdd.RDD {
	base := ctx.Generate("base", 0, 1<<20, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: split, V: 1.0}}
	})
	tagged := base.Map(func(r rdd.Row) rdd.Row {
		p := r.(rdd.Pair)
		return rdd.Pair{K: fmt.Sprint(p.K), V: p.V}
	})
	return base.CoGroup(tagged, nil)
}

// TypedJoin keys the typed orders by the split index (int), carried through
// a MapFloatPairs filter, but the names side by its string rendering.
func TypedJoin(ctx *rdd.Context) *rdd.RDD {
	orders := ctx.GenerateFloatPairs("orders", 0, 1<<20, func(split, total int, emit func(int, float64)) {
		emit(split, 1)
	}).MapFloatPairs("filter", 0.4, func(k int, v float64) (int, float64, bool) { return k, v, v > 0 })
	names := ctx.Generate("names", 0, 1<<20, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: fmt.Sprint(split), V: split}}
	})
	return orders.Join(names, nil)
}

// TypedIterJoin joins int-keyed links against ranks keyed by their string
// rendering, through the typed join.
func TypedIterJoin(ctx *rdd.Context) *rdd.RDD {
	links := ctx.Generate("links", 0, 1<<20, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: split, V: []int{split}}}
	})
	ranks := ctx.Generate("ranks", 0, 1<<20, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: fmt.Sprint(split), V: 1.0}}
	})
	return links.JoinFlatMapFloatPairs(ranks, nil, func(k int, _ rdd.Row, rank float64, emit func(int, float64)) {
		emit(k, rank)
	})
}
