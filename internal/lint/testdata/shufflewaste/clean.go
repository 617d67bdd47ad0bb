package swfix

import "chopper/internal/rdd"

// PartitionForJoin partitions one side and joins on it: the join is exactly
// the partitioning-dependent operation the shuffle pays for.
func PartitionForJoin(ctx *rdd.Context) *rdd.RDD {
	left := ctx.Generate("joinLeft", 0, 1<<20, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: split, V: 1.0}}
	})
	right := ctx.Generate("joinRight", 0, 1<<20, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: split, V: 2.0}}
	})
	part := rdd.NewHashPartitioner(64)
	keyed := left.PartitionBy(part)
	return keyed.Join(right, part)
}

// PartitionThroughMapValues carries the partitioning through the one narrow
// transform that preserves it, then consumes it in an action.
func PartitionThroughMapValues(ctx *rdd.Context) {
	rows := ctx.Generate("mvRows", 0, 1<<20, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: split, V: 1.0}}
	})
	keyed := rows.PartitionBy(rdd.NewHashPartitioner(16)).
		MapValues(func(v any) any { return v.(float64) * 2 })
	keyed.CollectPairsMap()
}

// PartitionEscapes hands the partitioned RDD to a helper the analysis
// cannot follow; the partitioning may be consumed there.
func PartitionEscapes(ctx *rdd.Context) *rdd.RDD {
	rows := ctx.Generate("escRows", 0, 1<<20, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: split, V: 1.0}}
	})
	keyed := rows.PartitionBy(rdd.NewHashPartitioner(16))
	return describe(keyed)
}

func describe(r *rdd.RDD) *rdd.RDD { return r }
