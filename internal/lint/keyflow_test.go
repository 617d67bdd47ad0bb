package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chopper/internal/lint"
)

// TestStaleKeySuppression pins the satellite requirement that the
// suppression audit covers the key rules: a lint:ignore naming a
// key rule that matches no finding must be reported as stale.
func TestStaleKeySuppression(t *testing.T) {
	diags := plantModule(t, "internal/workloads", `package workloads

//lint:ignore keydrift the join below used to drift before the 2025 rekey
func Nothing() int { return 4 }
`, lint.Key())
	if len(diags) != 1 {
		t.Fatalf("want 1 stale-suppression finding, got %v", diags)
	}
	d := diags[0]
	if d.Rule != "suppression" || !strings.Contains(d.Message, "keydrift") || !strings.Contains(d.Message, "stale") {
		t.Fatalf("unexpected diagnostic: %+v", d)
	}
}

// TestPlantedKeyViolation is the deliberate-break check from the issue:
// a constant-key shuffle planted in internal/workloads must be reported
// with a file:line position, proving the ci.sh chopperlint gate would
// catch the regression.
func TestPlantedKeyViolation(t *testing.T) {
	src := `package workloads

import "chopper/internal/rdd"

func PlantedGlobalSum(ctx *rdd.Context) *rdd.RDD {
	rows := ctx.Generate("rows", 0, 1024, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: 0, V: 1.0}}
	})
	return rows.ReduceByKey(func(a, b any) any { return a }, 8)
}
`
	out, ok := keyFindings(t, src)
	if !ok {
		t.Fatal("planted module failed to load")
	}
	if !strings.Contains(out, "constkey") || !strings.Contains(out, "planted.go:9") {
		t.Fatalf("planted constant-key shuffle not reported:\n%s", out)
	}
}

// rddStub is the minimal chopper/internal/rdd needed for fuzzed sources to
// type-check inside a throwaway module: the pair type, the partitioner, and
// every RDD method the key rules model.
const rddStub = `package rdd

type Row = any

type Pair struct{ K, V any }

type Partitioner interface {
	Name() string
	NumPartitions() int
	Identity() int64
}

type HashPartitioner struct{ n int }

func NewHashPartitioner(n int) *HashPartitioner { return &HashPartitioner{n: n} }
func (p *HashPartitioner) Name() string         { return "hash" }
func (p *HashPartitioner) NumPartitions() int   { return p.n }
func (p *HashPartitioner) Identity() int64      { return 0 }

type Context struct{}

func (c *Context) Generate(name string, n int, logicalBytes int64, gen func(split, total int) []Row) *RDD {
	return &RDD{}
}

type RDD struct{}

func (r *RDD) Map(f func(Row) Row) *RDD                                  { return r }
func (r *RDD) MapCost(name string, cost float64, f func(Row) Row) *RDD   { return r }
func (r *RDD) Filter(pred func(Row) bool) *RDD                           { return r }
func (r *RDD) FlatMap(f func(Row) []Row) *RDD                            { return r }
func (r *RDD) MapPartitions(name string, cost float64, f func(int, []Row) []Row) *RDD { return r }
func (r *RDD) MapValues(f func(any) any) *RDD                            { return r }
func (r *RDD) Values() *RDD                                              { return r }
func (r *RDD) Persist() *RDD                                             { return r }
func (r *RDD) Cache() *RDD                                               { return r }
func (r *RDD) PartitionBy(p Partitioner) *RDD                            { return r }
func (r *RDD) Repartition(n int) *RDD                                    { return r }
func (r *RDD) ReduceByKey(f func(a, b any) any, n int) *RDD              { return r }
func (r *RDD) ReduceByKeyPart(f func(a, b any) any, p Partitioner) *RDD  { return r }
func (r *RDD) SumByKey(p Partitioner) *RDD                               { return r }
func (r *RDD) GroupByKey(n int) *RDD                                     { return r }
func (r *RDD) Join(o *RDD, p Partitioner) *RDD                           { return r }
func (r *RDD) CoGroup(o *RDD, p Partitioner) *RDD                        { return r }
func (r *RDD) Count() (int64, error)                                     { return 0, nil }
func (r *RDD) SumFloat() (float64, error)                                { return 0, nil }
func (r *RDD) Collect() ([]Row, error)                                   { return nil, nil }
`

// FuzzKeyFacts throws arbitrary Go source at the key-family pipeline (key
// expression scanning, the flow-sensitive fixpoint, and all three rules)
// and asserts the same two properties as FuzzLockContract: no panics, and
// byte-identical findings across two independent loads.
func FuzzKeyFacts(f *testing.F) {
	seeds := []string{
		`package workloads

import "chopper/internal/rdd"

func ConstShuffle(ctx *rdd.Context) *rdd.RDD {
	rows := ctx.Generate("rows", 0, 1024, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: 0, V: split}}
	})
	return rows.ReduceByKey(func(a, b any) any { return a }, 4)
}
`,
		`package workloads

import "chopper/internal/rdd"

func WastedPartition(ctx *rdd.Context) {
	rows := ctx.Generate("rows", 0, 1024, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: split, V: 1.0}}
	})
	keyed := rows.PartitionBy(rdd.NewHashPartitioner(8))
	keyed.Map(func(r rdd.Row) rdd.Row {
		p := r.(rdd.Pair)
		return rdd.Pair{K: p.V, V: p.K}
	}).Count()
}
`,
		`package workloads

import "chopper/internal/rdd"

func DriftingJoin(ctx *rdd.Context, flip bool) *rdd.RDD {
	a := ctx.Generate("a", 0, 1024, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: split, V: 1.0}}
	})
	b := ctx.Generate("b", 0, 1024, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: split % 3, V: 1.0}}
	})
	if flip {
		a = b
	}
	for i := 0; i < 2; i++ {
		a = a.MapValues(func(v any) any { return v })
	}
	return a.Join(b, nil)
}
`,
		"package workloads\n\nfunc broken( {",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		first, ok := keyFindings(t, src)
		if !ok {
			return // unloadable input: nothing to check
		}
		second, _ := keyFindings(t, src)
		if first != second {
			t.Fatalf("nondeterministic findings:\n--- first ---\n%s--- second ---\n%s", first, second)
		}
	})
}

// keyFindings plants src as internal/workloads of a throwaway module (with
// an rdd stub so imports resolve) and runs the key rule family over it.
func keyFindings(t *testing.T, src string) (string, bool) {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module chopper\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rddDir := filepath.Join(root, "internal", "rdd")
	if err := os.MkdirAll(rddDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(rddDir, "rdd.go"), []byte(rddStub), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "internal", "workloads")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "planted.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ld, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := ld.Load(dir)
	if err != nil {
		return "", false
	}
	diags := lint.Run(pkg, lint.Key())
	for i := range diags {
		diags[i].File = filepath.Base(diags[i].File)
	}
	var b strings.Builder
	if err := lint.WriteText(&b, diags); err != nil {
		t.Fatal(err)
	}
	return b.String(), true
}
