package ccfix

import "chopper/internal/rdd"

// seen counts rows observed across the workload; transform closures must
// never touch it.
var seen int

// bumpSeen hides the package-level write behind a call.
func bumpSeen() { seen++ }

// CountRows writes a captured accumulator and a package-level counter from
// inside a Map closure.
func CountRows(r *rdd.RDD) *rdd.RDD {
	total := 0
	return r.Map(func(row rdd.Row) rdd.Row {
		total++
		seen = total
		return row
	})
}

// Tally routes the impure write through a package-local helper.
func Tally(r *rdd.RDD) *rdd.RDD {
	return r.Filter(func(row rdd.Row) bool {
		bumpSeen()
		return row != nil
	})
}

// Rescale reassigns a captured variable after the lazy transform is built,
// so re-execution observes the doubled factor.
func Rescale(r *rdd.RDD) *rdd.RDD {
	scale := 1.0
	out := r.Map(func(row rdd.Row) rdd.Row {
		return row.(float64) * scale
	})
	scale = 2.0
	return out
}

// Deflate captures a variable the loop reassigns before each transform:
// every closure shares the final value.
func Deflate(r *rdd.RDD, iters int) []*rdd.RDD {
	factor := 0.0
	var out []*rdd.RDD
	for i := 0; i < iters; i++ {
		factor = float64(i)
		out = append(out, r.Map(func(row rdd.Row) rdd.Row {
			return row.(float64) * factor
		}))
	}
	return out
}

// KeptPairs counts the pairs a typed filter keeps in a captured variable.
func KeptPairs(r *rdd.RDD) *rdd.RDD {
	kept := 0
	return r.MapFloatPairs("filter", 0.4, func(k int, v float64) (int, float64, bool) {
		kept++
		return k, v, v > 0
	})
}

// SharesSeen counts the matches a typed join sees in a captured variable,
// and damps the ranks by a factor it reassigns after the transform.
func SharesSeen(links, ranks *rdd.RDD) *rdd.RDD {
	matches := 0
	shares := links.JoinFlatMapFloatPairs(ranks, nil, func(k int, _ rdd.Row, rank float64, emit func(int, float64)) {
		matches++
		emit(k, rank)
	})
	damping := 0.85
	damped := shares.SumByKey(nil).MapFloatValues(func(v float64) float64 { return damping * v })
	damping = 0.5
	return damped
}
