package plan

import (
	"strings"
	"testing"

	"chopper/internal/rdd"
)

func pipeline() (*rdd.Context, *rdd.RDD) {
	ctx := rdd.NewContext(4)
	src := ctx.Generate("src", 0, 1000, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: split, V: 1.0}}
	})
	agg := src.Map(func(r rdd.Row) rdd.Row { return r }).
		ReduceByKey(func(a, b any) any { return a }, 3).
		Cache()
	other := ctx.Generate("other", 0, 500, func(split, total int) []rdd.Row {
		return []rdd.Row{rdd.Pair{K: split, V: "x"}}
	})
	return ctx, agg.Join(other, nil)
}

func TestTree(t *testing.T) {
	_, target := pipeline()
	out := Tree(target)
	for _, want := range []string{"join#", "cogroup#", "= reduceByKey", "- src#", "(cached)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree missing %q:\n%s", want, out)
		}
	}
	// Shuffle boundaries must be marked.
	if strings.Count(out, "= ") < 2 {
		t.Fatalf("expected at least two stage boundaries:\n%s", out)
	}
}

func TestTreeSharedSubgraph(t *testing.T) {
	ctx := rdd.NewContext(2)
	base := ctx.Parallelize([]rdd.Row{rdd.Pair{K: 1, V: 1.0}}, 1)
	self := base.Join(base, nil)
	out := Tree(self)
	if !strings.Contains(out, "(shared)") {
		t.Fatalf("self-join should show a shared sub-lineage:\n%s", out)
	}
}

func TestDOT(t *testing.T) {
	_, target := pipeline()
	dot := DOT(target, "demo")
	for _, want := range []string{"digraph \"demo\"", "rankdir=BT", "color=red", "shape=box", "shape=ellipse", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("dot missing %q:\n%s", want, dot)
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(dot), "}") {
		t.Fatalf("dot not closed")
	}
	// Every node referenced by an edge must be declared.
	for _, line := range strings.Split(dot, "\n") {
		line = strings.TrimSpace(line)
		if strings.Contains(line, "->") {
			parts := strings.SplitN(line, "->", 2)
			from := strings.TrimSpace(parts[0])
			if !strings.Contains(dot, from+" [label=") {
				t.Fatalf("edge references undeclared node %q", from)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	_, target := pipeline()
	st := Summarize(target)
	if st.Sources != 2 {
		t.Fatalf("sources = %d, want 2", st.Sources)
	}
	// reduceByKey + two join-side shuffles.
	if st.Shuffles != 3 {
		t.Fatalf("shuffles = %d, want 3", st.Shuffles)
	}
	if st.Cached != 1 {
		t.Fatalf("cached = %d, want 1", st.Cached)
	}
	if st.RDDs < 6 || st.MaxDepth < 3 {
		t.Fatalf("stats implausible: %+v", st)
	}
}

func TestSummarizeNarrowChain(t *testing.T) {
	ctx := rdd.NewContext(2)
	r := ctx.Parallelize([]rdd.Row{1}, 1).
		Map(func(r rdd.Row) rdd.Row { return r }).
		Filter(func(rdd.Row) bool { return true })
	st := Summarize(r)
	if st.Shuffles != 0 || st.RDDs != 3 || st.MaxDepth != 2 {
		t.Fatalf("narrow chain stats wrong: %+v", st)
	}
}

// Summarize serves only these tests.

// Stats summarizes a lineage graph.
type Stats struct {
	RDDs     int
	Shuffles int
	Cached   int
	Sources  int
	MaxDepth int
}

// Summarize computes lineage statistics for target.
func Summarize(target *rdd.RDD) Stats {
	_, order := buildGraph(target)
	st := Stats{RDDs: len(order)}
	for _, n := range order {
		st.Shuffles += len(n.shuffles)
		if n.r.Cached {
			st.Cached++
		}
		if len(n.r.Deps) == 0 {
			st.Sources++
		}
	}
	depth := map[int]int{}
	var dfs func(n *node) int
	dfs = func(n *node) int {
		if d, ok := depth[n.r.ID]; ok {
			return d
		}
		d := 0
		for _, p := range append(append([]*node{}, n.narrow...), n.shuffles...) {
			if pd := dfs(p) + 1; pd > d {
				d = pd
			}
		}
		depth[n.r.ID] = d
		return d
	}
	for _, n := range order {
		if d := dfs(n); d > st.MaxDepth {
			st.MaxDepth = d
		}
	}
	return st
}
