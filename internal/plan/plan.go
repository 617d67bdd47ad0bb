// Package plan renders RDD lineage graphs and their stage decomposition —
// the engine's analogue of Spark's explain(): a text tree for terminals and
// a Graphviz DOT document for tooling.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"chopper/internal/rdd"
)

// node is the internal graph representation used by both renderers.
type node struct {
	r        *rdd.RDD
	narrow   []*node
	shuffles []*node
}

func buildGraph(target *rdd.RDD) (*node, []*node) {
	byID := map[int]*node{}
	var order []*node
	var walk func(r *rdd.RDD) *node
	walk = func(r *rdd.RDD) *node {
		if n, ok := byID[r.ID]; ok {
			return n
		}
		n := &node{r: r}
		byID[r.ID] = n
		for _, d := range r.Deps {
			switch dep := d.(type) {
			case *rdd.NarrowDep:
				n.narrow = append(n.narrow, walk(dep.P))
			case *rdd.ShuffleDep:
				n.shuffles = append(n.shuffles, walk(dep.P))
			}
		}
		order = append(order, n)
		return n
	}
	root := walk(target)
	return root, order
}

func label(r *rdd.RDD) string {
	l := fmt.Sprintf("%s#%d x%d", r.Op, r.ID, r.NumParts)
	if r.Part != nil {
		l += " [" + r.Part.Name() + "]"
	}
	if r.Cached {
		l += " (cached)"
	}
	return l
}

// Tree renders the lineage of target as an indented text tree: narrow
// dependencies continue the branch ("- "); shuffle dependencies mark stage
// boundaries ("= "). Shared sub-lineages print once.
func Tree(target *rdd.RDD) string {
	var b strings.Builder
	seen := map[int]bool{}
	var walk func(r *rdd.RDD, depth int, viaShuffle bool)
	walk = func(r *rdd.RDD, depth int, viaShuffle bool) {
		indent := strings.Repeat("  ", depth)
		marker := "- "
		if viaShuffle {
			marker = "= "
		}
		if seen[r.ID] {
			fmt.Fprintf(&b, "%s%s%s (shared)\n", indent, marker, label(r))
			return
		}
		seen[r.ID] = true
		fmt.Fprintf(&b, "%s%s%s\n", indent, marker, label(r))
		for _, d := range r.Deps {
			switch dep := d.(type) {
			case *rdd.NarrowDep:
				walk(dep.P, depth+1, false)
			case *rdd.ShuffleDep:
				walk(dep.P, depth+1, true)
			}
		}
	}
	walk(target, 0, false)
	return b.String()
}

// DOT renders the lineage as a Graphviz digraph: solid edges for narrow
// dependencies, bold red edges for shuffles, boxes for cached RDDs.
func DOT(target *rdd.RDD, name string) string {
	_, order := buildGraph(target)
	sort.Slice(order, func(i, j int) bool { return order[i].r.ID < order[j].r.ID })
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=BT;\n", name)
	for _, n := range order {
		shape := "ellipse"
		if n.r.Cached {
			shape = "box"
		}
		fmt.Fprintf(&b, "  n%d [label=%q, shape=%s];\n", n.r.ID, label(n.r), shape)
	}
	for _, n := range order {
		for _, p := range n.narrow {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", p.r.ID, n.r.ID)
		}
		for _, p := range n.shuffles {
			fmt.Fprintf(&b, "  n%d -> n%d [color=red, style=bold, label=\"shuffle\"];\n", p.r.ID, n.r.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
