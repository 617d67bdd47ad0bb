package verify_test

import (
	"testing"

	"chopper/internal/plan/verify"
	"chopper/internal/rdd"
)

// FuzzPlanInvariants drives the public RDD API from fuzz input to build
// arbitrary (but well-formed) lineage DAGs and asserts the verifier accepts
// every plan the API can express, and every plan a configuration asking
// for range partitioning makes of it: the invariants must hold by
// construction, so any finding here is a verifier false positive or an API
// bug.
func FuzzPlanInvariants(f *testing.F) {
	f.Add([]byte{4, 0, 2, 8})
	f.Add([]byte{2, 4, 3, 5, 1})
	f.Add([]byte{8, 2, 16, 4, 2, 0, 3, 6})
	f.Add([]byte{1, 5, 3, 2, 200, 4, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		lim := verify.DefaultLimits(nil)
		ctx := rdd.NewContext(4)
		parts := int(data[0])%32 + 1
		r := pairSource(ctx, "fuzz", parts, 1e9)

		// Remaining bytes are op codes; ops needing a partition count consume
		// the following byte. Counts are clamped into the verifier's budget —
		// the API contract the scheduler also honors.
		count := func(i int) int {
			if i >= len(data) {
				return 2
			}
			n := int(data[i])%lim.MaxPartitions + 1
			return n
		}
		// first reduces without assuming a value type: a join's output
		// carries JoinedValue.
		first := func(a, b any) any { return a }
		ranged := map[*rdd.ShuffleDep]int{}
		ops := 0
		for i := 1; i < len(data) && ops < 12; i++ {
			ops++
			switch data[i] % 6 {
			case 0:
				r = r.MapValues(func(v any) any { return v })
			case 1:
				r = r.Filter(func(row rdd.Row) bool { return true })
			case 2:
				i++
				r = r.ReduceByKey(first, count(i))
			case 3:
				// A tunable reduce the configuration makes range partitioned.
				i++
				r = r.ReduceByKey(first, 0)
				ranged[r.Deps[0].(*rdd.ShuffleDep)] = count(i)
			case 4:
				i++
				other := pairSource(ctx, "side", int(data[0])%16+1, 1e8).
					ReduceByKey(first, count(i))
				r = r.Join(other, nil)
			case 5:
				i++
				r = r.Repartition(count(i))
			}
		}

		if vs := verify.Plan(r, nil, lim); len(vs) > 0 {
			t.Fatalf("verifier rejected an API-built plan (input %v): %v", data, vs)
		}
		if err := runRanged(r, ranged, lim); err != nil {
			t.Fatalf("verifier rejected a configured plan (input %v): %v", data, err)
		}
		if vs := verify.Plan(r, nil, lim); len(vs) > 0 {
			t.Fatalf("verifier rejected a sampled plan (input %v): %v", data, vs)
		}
	})
}
