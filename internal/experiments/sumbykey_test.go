package experiments

import (
	"bytes"
	"math"
	"testing"

	"chopper"
	"chopper/internal/rdd"
	"chopper/internal/workloads"
)

// sumShape is a small job shaped like a built-in that sums floats per key —
// SQL's revenue aggregation feeding a join, or PageRank's iterated
// contribution sum under an explicit partitioner — with the sum spelled
// either way: SumByKey (the unboxed kernel tier) or ReduceByKey with the
// boxed float sum. Everything else is identical, so two runs must agree on
// every row bit, every trace byte and the simulated clock.
type sumShape struct {
	pagerank bool
	unboxed  bool
	out      []rdd.Row
}

func (s *sumShape) Name() string             { return "sumshape" }
func (s *sumShape) DefaultInputBytes() int64 { return 256 << 20 }

func (s *sumShape) sum(r *rdd.RDD, p rdd.Partitioner) *rdd.RDD {
	if s.unboxed {
		return r.SumByKey(p)
	}
	add := func(a, b any) any { return a.(float64) + b.(float64) }
	if p == nil {
		return r.ReduceByKey(add, 0)
	}
	return r.ReduceByKeyPart(add, p)
}

func (s *sumShape) Run(ctx *rdd.Context, inputBytes int64) (workloads.Result, error) {
	ctx.LogicalScale = 4000
	var err error
	if s.pagerank {
		s.out, err = s.runPageRank(ctx, inputBytes)
	} else {
		s.out, err = s.runSQL(ctx, inputBytes)
	}
	return workloads.Result{Checksum: float64(len(s.out))}, err
}

func (s *sumShape) runSQL(ctx *rdd.Context, inputBytes int64) ([]rdd.Row, error) {
	const orders, customers = 5000, 300
	ord := ctx.Generate("orders", 0, inputBytes*3/4, func(split, total int) []rdd.Row {
		var rows []rdd.Row
		for i := split; i < orders; i += total {
			rows = append(rows, rdd.Pair{K: workloads.ZipfIndex(5, int64(i), customers), V: 10 + 0.37*float64(i%997)})
		}
		return rows
	})
	cust := ctx.Generate("customers", 0, inputBytes/4, func(split, total int) []rdd.Row {
		var rows []rdd.Row
		for i := split; i < customers; i += total {
			rows = append(rows, rdd.Pair{K: i, V: []string{"AMER", "EMEA", "APAC"}[i%3]})
		}
		return rows
	})
	revenue := s.sum(ord.Filter(func(r rdd.Row) bool { return r.(rdd.Pair).V.(float64) >= 20 }), nil).Cache()
	if _, err := revenue.Count(); err != nil {
		return nil, err
	}
	return revenue.Join(cust, nil).Collect()
}

func (s *sumShape) runPageRank(ctx *rdd.Context, inputBytes int64) ([]rdd.Row, error) {
	const pages = 700
	part := rdd.NewHashPartitioner(ctx.DefaultParallelism)
	links := ctx.Generate("links", 0, inputBytes, func(split, total int) []rdd.Row {
		var rows []rdd.Row
		for i := split; i < pages; i += total {
			out := make([]int, 1+i%7)
			for d := range out {
				out[d] = (i*31 + d*d*17) % pages
			}
			rows = append(rows, rdd.Pair{K: i, V: out})
		}
		return rows
	}).PartitionBy(part).Cache()
	ranks := links.MapValues(func(any) any { return 1.0 })
	for it := 0; it < 3; it++ {
		contribs := links.Join(ranks, part).FlatMap(func(r rdd.Row) []rdd.Row {
			jv := r.(rdd.Pair).V.(rdd.JoinedValue)
			out := jv.Left.([]int)
			rows := make([]rdd.Row, len(out))
			for i, dst := range out {
				rows[i] = rdd.Pair{K: dst, V: jv.Right.(float64) / float64(len(out))}
			}
			return rows
		})
		ranks = s.sum(contribs, part).MapValues(func(v any) any { return 0.15 + 0.85*v.(float64) })
	}
	return ranks.Collect()
}

// floatOf extracts the float a sumShape output row carries.
func floatOf(t *testing.T, row rdd.Row) (key any, bits uint64) {
	t.Helper()
	pr := row.(rdd.Pair)
	switch v := pr.V.(type) {
	case float64:
		return pr.K, math.Float64bits(v)
	case rdd.JoinedValue:
		return pr.K, math.Float64bits(v.Left.(float64))
	}
	t.Fatalf("unexpected output row %#v", row)
	return nil, 0
}

// TestSumByKeyEqualsBoxedReduce runs each shape twice per scheduling mode,
// on two sessions: rows bit-equal, TestDeterministicTrace's trace
// byte-identical, simulated seconds equal.
func TestSumByKeyEqualsBoxedReduce(t *testing.T) {
	for _, mode := range schedulingModes {
		for _, pagerank := range []bool{false, true} {
			run := func(unboxed bool) ([]rdd.Row, []byte, float64) {
				w := &sumShape{pagerank: pagerank, unboxed: unboxed}
				sess, _, err := runSession(w, w.DefaultInputBytes(), chopper.WithDefaultParallelism(24), mode.opt)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := sess.Trace(true).Write(&buf); err != nil {
					t.Fatal(err)
				}
				return w.out, buf.Bytes(), sess.Elapsed()
			}
			boxedRows, boxedTrace, boxedNow := run(false)
			sumRows, sumTrace, sumNow := run(true)
			name := map[bool]string{false: "sql shape", true: "pagerank shape"}[pagerank] + "/" + mode.name
			if len(sumRows) == 0 || len(sumRows) != len(boxedRows) {
				t.Fatalf("%s: %d rows with SumByKey, %d with the boxed sum", name, len(sumRows), len(boxedRows))
			}
			for i := range sumRows {
				gk, gb := floatOf(t, sumRows[i])
				wk, wb := floatOf(t, boxedRows[i])
				if gk != wk || gb != wb {
					t.Fatalf("%s row %d: SumByKey gave %v, the boxed sum %v", name, i, sumRows[i], boxedRows[i])
				}
			}
			if !bytes.Equal(sumTrace, boxedTrace) {
				t.Fatalf("%s: traces differ:\n%s", name, firstTraceDiff(boxedTrace, sumTrace))
			}
			if sumNow != boxedNow || sumNow <= 0 {
				t.Fatalf("%s: simulated clock %v with SumByKey, %v with the boxed sum", name, sumNow, boxedNow)
			}
		}
	}
}
