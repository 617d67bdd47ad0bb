package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"chopper/internal/rdd"
)

// keyedSource is a seeded source of n pairs per partition over six
// partitions; pair i of split s is pair(rng, s, i).
func keyedSource(ctx *rdd.Context, name string, n int, pair func(rng *rand.Rand, split, i int) rdd.Pair) *rdd.RDD {
	return ctx.Generate(name, 6, int64(n)*6*40, func(split, _ int) []rdd.Row {
		rng := rand.New(rand.NewSource(int64(split) + 1))
		out := make([]rdd.Row, n)
		for i := range out {
			out[i] = pair(rng, split, i)
		}
		return out
	})
}

// wordPairs are string-keyed float64 pairs over 23 keys.
func wordPairs(ctx *rdd.Context, name string) *rdd.RDD {
	return keyedSource(ctx, name, 40, func(rng *rand.Rand, _, _ int) rdd.Pair {
		return rdd.Pair{K: fmt.Sprintf("w%02d", rng.Intn(23)), V: float64(rng.Intn(1000)) / 8}
	})
}

// concat is a reduce function whose result shows its fold order.
func concat(a, b any) any { return fmt.Sprint(a) + "|" + fmt.Sprint(b) }

// mixedPairs are pairs whose key and value types depend on the split, so
// the map tasks of one shuffle write different arena kinds: splits 0 and 3
// hold int keys and float64 values, splits 1 and 4 int keys and (unless
// f64) some string values, splits 2 and 5 also int64 keys, which no
// columnar layout takes. An int64 key is never equal to an int one.
func mixedPairs(ctx *rdd.Context, f64 bool) *rdd.RDD {
	return keyedSource(ctx, "mixed", 30, func(rng *rand.Rand, split, i int) rdd.Pair {
		var k any = rng.Intn(40)
		if split%3 == 2 && i%4 == 0 {
			k = int64(100 + rng.Intn(10))
		}
		var v any = float64(rng.Intn(1000)) / 4
		if !f64 && split%3 == 1 && i%3 == 0 {
			v = fmt.Sprintf("s%d", i)
		}
		return rdd.Pair{K: k, V: v}
	})
}

// TestKeyKindsOnTheEngine pins the engine on shuffles of key kinds no
// built-in produces, which only the boxed tier carries: string keys
// through every keyed op, float64 keys, and map tasks of mixed kinds. For
// each job in both scheduling modes the collected rows equal LocalRunner's,
// and every stage's simulated end (its bits), shuffle read and shuffle
// write are pinned, in stage order.
func TestKeyKindsOnTheEngine(t *testing.T) {
	for _, j := range []struct {
		name string
		job  func(ctx *rdd.Context) *rdd.RDD
		want [2]string // by co-partition-aware placement off, on
	}{
		{"string SumByKey", func(ctx *rdd.Context) *rdd.RDD {
			return wordPairs(ctx, "words").SumByKey(nil)
		}, [2]string{
			"0x400811d7a737dc07/0/3081456 0x401918150e1cd83a/3081456/0",
			"0x400811d7a737dc07/0/3081456 0x40191a56b04832a6/3081456/0",
		}},
		{"string ReduceByKey any", func(ctx *rdd.Context) *rdd.RDD {
			return wordPairs(ctx, "words").MapValues(func(v any) any { return int(v.(float64)) }).ReduceByKey(concat, 4)
		}, [2]string{
			"0x400885dfe927adb1/0/3632304 0x401961c0380401f5/3632304/0",
			"0x400885dfe927adb1/0/3632304 0x4019662356f7166e/3632304/0",
		}},
		{"string GroupByKey", func(ctx *rdd.Context) *rdd.RDD {
			return wordPairs(ctx, "words").GroupByKey(5)
		}, [2]string{
			"0x40081ae49d42f782/0/6482880 0x40193033db674178/6482880/0",
			"0x40081ae49d42f782/0/6482880 0x401934d855fc4b34/6482880/0",
		}},
		{"string Join", func(ctx *rdd.Context) *rdd.RDD {
			return wordPairs(ctx, "left").Join(wordPairs(ctx, "right").ReduceByKey(concat, 3), nil)
		}, [2]string{
			"0x40081ae4f8f81ef2/0/6483456 0x40191d404484557a/0/4211728 0x402359959e0aa7f7/4211728/2050672 0x402a4e0b029a17b4/8534128/0",
			"0x40081ae4f8f81ef2/0/6483456 0x400a1f9b90108c02/0/4211728 0x401aa1e778209ea8/4211728/2050672 0x4024465c6fa3b892/8534128/0",
		}},
		{"float64-key ReduceByKey", func(ctx *rdd.Context) *rdd.RDD {
			return keyedSource(ctx, "floats", 40, func(rng *rand.Rand, _, _ int) rdd.Pair {
				return rdd.Pair{K: float64(rng.Intn(17)) / 4, V: rng.Intn(100)}
			}).ReduceByKey(concat, 4)
		}, [2]string{
			"0x400811d33483dd05/0/2750304 0x401921cd40301aa4/2750304/0",
			"0x400811d33483dd05/0/2750304 0x401924c29e58d786/2750304/0",
		}},
		{"mixed PartitionBy", func(ctx *rdd.Context) *rdd.RDD {
			return mixedPairs(ctx, false).PartitionBy(rdd.NewHashPartitioner(5))
		}, [2]string{
			"0x400815f784ac5fa6/0/4374880 0x4019612665e20b35/4374880/0",
			"0x400815f784ac5fa6/0/4374880 0x4019677c80699c74/4374880/0",
		}},
		{"mixed ReduceByKey", func(ctx *rdd.Context) *rdd.RDD {
			return mixedPairs(ctx, false).ReduceByKey(concat, 5)
		}, [2]string{
			"0x4008143b756b7fc1/0/3680880 0x401934e625e6e32a/3680880/0",
			"0x4008143b756b7fc1/0/3680880 0x40193a604c0d6752/3680880/0",
		}},
		{"mixed SumByKey", func(ctx *rdd.Context) *rdd.RDD {
			return mixedPairs(ctx, true).SumByKey(rdd.NewHashPartitioner(4))
		}, [2]string{
			"0x400813233b1fbe4f/0/3266304 0x4019294b9adfc38f/3266304/0",
			"0x400813233b1fbe4f/0/3266304 0x40192d2fc7d84582/3266304/0",
		}},
	} {
		lctx := rdd.NewContext(6)
		lctx.LogicalScale = 1000
		lctx.SetRunner(rdd.NewLocalRunner())
		oracle, err := j.job(lctx).Collect()
		if err != nil {
			t.Fatalf("%s on LocalRunner: %v", j.name, err)
		}
		for mode, coPart := range []bool{false, true} {
			h := newHarness(coPart, nil)
			rows, err := j.job(h.ctx).Collect()
			if err != nil {
				t.Fatalf("%s (co-partition-aware %v): %v", j.name, coPart, err)
			}
			if len(rows) == 0 || !reflect.DeepEqual(rows, oracle) {
				t.Errorf("%s (co-partition-aware %v): rows\n %v\nwant\n %v", j.name, coPart, rows, oracle)
			}
			var stages []string
			for _, st := range h.col.Stages() {
				stages = append(stages, fmt.Sprintf("%#x/%d/%d", math.Float64bits(st.End), st.ShuffleRead, st.ShuffleWrite))
			}
			if got := strings.Join(stages, " "); got != j.want[mode] {
				t.Errorf("%s (co-partition-aware %v): stages (end bits/read/write)\n %s\nwant\n %s", j.name, coPart, got, j.want[mode])
			}
		}
	}
}
