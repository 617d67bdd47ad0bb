package workloads

import (
	"fmt"

	"chopper/internal/rdd"
)

// PageRank is an extension workload (not part of the paper's evaluation):
// the classic iterative rank computation whose per-iteration join between
// the static link table and the evolving ranks is the hardest exercise of
// CHOPPER's co-partitioning — with aligned partitioners the join's shuffle
// of the (large) link table disappears entirely.
type PageRank struct {
	Pages      int
	AvgDegree  int
	Iterations int
	Damping    float64
	Seed       int64

	memo sourceMemo
}

// NewPageRank returns a laptop-scale PageRank.
func NewPageRank() *PageRank {
	return &PageRank{Pages: 4000, AvgDegree: 8, Iterations: 4, Damping: 0.85, Seed: 11}
}

// Name implements Workload.
func (p *PageRank) Name() string { return "pagerank" }

// DefaultInputBytes implements Workload (a mid-size 12 GB logical graph).
func (p *PageRank) DefaultInputBytes() int64 { return int64(12 * GB) }

// outLinks deterministically generates page i's adjacency list with a
// preferential-attachment flavor (low ids collect more in-links).
func (p *PageRank) outLinks(i int) []int {
	deg := 1 + int(det01(p.Seed, int64(i))*float64(2*p.AvgDegree-1))
	links := make([]int, 0, deg)
	for d := 0; d < deg; d++ {
		u := det01(p.Seed+int64(d)+13, int64(i))
		// Square the uniform draw: heavy head like real web graphs.
		target := int(u * u * float64(p.Pages))
		if target == i {
			target = (target + 1) % p.Pages
		}
		links = append(links, target)
	}
	return links
}

// adjacency is the link-table value: a page's outgoing edges.
type adjacency struct {
	Out []int
}

// LogicalBytes implements rdd.Sizer.
func (a adjacency) LogicalBytes() int64 { return int64(8*len(a.Out)) + 16 }

// Run implements Workload.
func (p *PageRank) Run(ctx *rdd.Context, inputBytes int64) (Result, error) {
	physRow := int64(8*p.AvgDegree) + 24
	setScale(ctx, inputBytes, int64(p.Pages)*physRow)

	// Links are partitioned once and cached; every iteration joins ranks
	// against them. Sharing the partitioner makes the link side narrow.
	part := rdd.NewHashPartitioner(ctx.DefaultParallelism)
	source := ctx.Generate("pagerankLinks", 0, inputBytes, func(split, total int) []rdd.Row {
		rows := strideBuf(p.Pages, split, total)
		strideRows(p.Pages, split, total, func(i int) {
			rows = append(rows, rdd.Pair{K: i, V: adjacency{Out: p.outLinks(i)}})
		})
		return rows
	})
	p.memo.wrap(genParams{int64(p.Pages), int64(p.AvgDegree), p.Seed}, source)
	links := source.
		MapCost("parseLinks", 6.0, func(r rdd.Row) rdd.Row { return r }).
		PartitionBy(part).
		Cache()
	pages, err := links.Count()
	if err != nil {
		return Result{}, err
	}
	if pages == 0 {
		return Result{}, fmt.Errorf("pagerank: empty graph: %w", ErrInputTooSmall)
	}

	ranks := links.MapValues(func(any) any { return 1.0 })
	for it := 0; it < p.Iterations; it++ {
		contribs := links.JoinFlatMapFloatPairs(ranks, part, func(_ int, left rdd.Row, rank float64, emit func(int, float64)) {
			adj := left.(adjacency)
			if len(adj.Out) == 0 {
				return
			}
			share := rank / float64(len(adj.Out))
			for _, dst := range adj.Out {
				emit(dst, share)
			}
		})
		ranks = contribs.
			SumByKey(part).
			MapFloatValues(func(v float64) float64 { return (1 - p.Damping) + p.Damping*v })
	}

	ranks = ranks.Cache()
	total, err := ranks.Values().SumFloat()
	if err != nil {
		return Result{}, err
	}
	top, err := ranks.TopByKey(1)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Checksum: total,
		Details: map[string]float64{
			"pages":     float64(pages),
			"rankTotal": total,
		},
	}
	if len(top) == 1 {
		res.Details["lastKey"] = float64(top[0].K.(int))
	}
	return res, nil
}
