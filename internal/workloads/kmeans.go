package workloads

import (
	"fmt"
	"math"
	"sort"

	"chopper/internal/rdd"
)

// KMeans reproduces the SparkBench KMeans workload with the paper's 20-stage
// structure (Fig. 2, Table III):
//
//	stage 0      heavy input scan + parse + cache (count action)
//	stage 1      second pass over the cached data (same signature as 0)
//	stages 2-11  five k-means|| style init rounds, two jobs each
//	             (sample-centers / evaluate-candidates) — narrow only
//	stages 12-17 three Lloyd iterations, each a shuffle map stage plus a
//	             reduce stage (the only shuffling stages, cf. Fig. 4)
//	stages 18-19 cost (WSSSE) pass and final summary pass
type KMeans struct {
	Rows       int // physical points
	Dim        int // features per point
	K          int // clusters
	InitRounds int // sampling rounds (2 stages each)
	Iterations int // Lloyd iterations (2 stages each)
	Seed       int64

	memo sourceMemo
}

// NewKMeans returns the paper-shaped KMeans workload.
func NewKMeans() *KMeans {
	return &KMeans{Rows: 24000, Dim: 10, K: 8, InitRounds: 5, Iterations: 3, Seed: 1}
}

// Name implements Workload.
func (k *KMeans) Name() string { return "kmeans" }

// DefaultInputBytes implements Workload (Table I: 21.8 GB).
func (k *KMeans) DefaultInputBytes() int64 { return int64(21.8 * GB) }

// point writes the i-th data point into p (k.Dim long): cluster centers on
// a scaled simplex with deterministic Gaussian noise.
func (k *KMeans) point(i int, p []float64) {
	c := i % k.K
	for d := range p {
		center := 0.0
		if d%k.K == c {
			center = 10
		}
		p[d] = center + detNorm(k.Seed+int64(d), int64(i))
	}
}

// sumCount is the combiner value of the Lloyd reduce: vector sum + count.
type sumCount struct {
	Sum []float64
	N   int64
}

// LogicalBytes implements rdd.Sizer.
func (s sumCount) LogicalBytes() int64 { return int64(8*len(s.Sum)) + 16 }

// ScaleInvariant implements rdd.ScaleInvariant: a per-cluster sum has the
// same size no matter how much data produced it.
func (s sumCount) ScaleInvariant() bool { return true }

// contentHash derives a stable 64-bit hash from a point's coordinates.
func contentHash(p []float64, seed int64) uint64 {
	h := uint64(seed) * 0x9e3779b97f4a7c15
	for _, v := range p {
		h ^= math.Float64bits(v)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return h
}

// nearest returns the index of the centre closest to p and its squared
// distance. Ties go to the lowest index and a NaN distance never wins.
// Four centres share each pass over p, one accumulator apiece, so the
// core is not waiting on a single chain of adds; every distance still sums
// j = 0…len(p)−1 in order and the compares run in centre order, so index
// and distance are bit-identical to one centre at a time.
func nearest(p []float64, centers [][]float64) (int, float64) {
	best, bestD := 0, math.Inf(1)
	c := 0
	for ; c+4 <= len(centers); c += 4 {
		c0, c1, c2, c3 := centers[c][:len(p)], centers[c+1][:len(p)], centers[c+2][:len(p)], centers[c+3][:len(p)]
		var d0, d1, d2, d3 float64
		for j, x := range p {
			e0, e1, e2, e3 := x-c0[j], x-c1[j], x-c2[j], x-c3[j]
			d0 += e0 * e0
			d1 += e1 * e1
			d2 += e2 * e2
			d3 += e3 * e3
		}
		if d0 < bestD {
			best, bestD = c, d0
		}
		if d1 < bestD {
			best, bestD = c+1, d1
		}
		if d2 < bestD {
			best, bestD = c+2, d2
		}
		if d3 < bestD {
			best, bestD = c+3, d3
		}
	}
	for ; c < len(centers); c++ {
		ctr := centers[c][:len(p)]
		d := 0.0
		for j, x := range p {
			diff := x - ctr[j]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// Run implements Workload.
func (k *KMeans) Run(ctx *rdd.Context, inputBytes int64) (Result, error) {
	physRow := int64(8*k.Dim) + 16
	setScale(ctx, inputBytes, int64(k.Rows)*physRow)

	source := ctx.Generate("kmeansInput", 0, inputBytes, func(split, total int) []rdd.Row {
		rows := strideBuf(k.Rows, split, total)
		next := vectorSlab(cap(rows), k.Dim)
		strideRows(k.Rows, split, total, func(i int) {
			p := next()
			k.point(i, p)
			rows = append(rows, p)
		})
		return rows
	})
	k.memo.wrap(genParams{int64(k.Rows), int64(k.Dim), int64(k.K), k.Seed}, source)
	// Stage 0/1: parse is the expensive text-to-vector conversion in
	// SparkBench; cost factor calibrated to the paper's long stage 0.
	points := source.MapCost("parsePoint", 15.0, func(r rdd.Row) rdd.Row { return r }).Cache()

	if _, err := points.Count(); err != nil { // stage 0
		return Result{}, err
	}
	if _, err := points.Count(); err != nil { // stage 1 (cached pass)
		return Result{}, err
	}

	// Stages 2-11: k-means|| init — alternating sample and evaluate jobs.
	// Candidate selection hashes point content, so the chosen centers are
	// independent of how the data is partitioned (unlike split-seeded
	// sampling, which would make results depend on the partition count).
	var centers [][]float64
	for r := 0; r < k.InitRounds; r++ {
		round := int64(r)
		sampled, err := points.Filter(func(row rdd.Row) bool {
			return contentHash(row.([]float64), k.Seed+round)%1000 < 2
		}).Collect() // stages 2,4,...
		if err != nil {
			return Result{}, err
		}
		// Order candidates content-deterministically: Collect order follows
		// partition layout, which must not leak into the chosen centers.
		sort.Slice(sampled, func(a, b int) bool {
			return contentHash(sampled[a].([]float64), k.Seed) < contentHash(sampled[b].([]float64), k.Seed)
		})
		for _, row := range sampled {
			if len(centers) < k.K {
				centers = append(centers, row.([]float64))
			}
		}
		cur := centers
		// Evaluate candidate quality (stages 3,5,...): distance scan.
		eval := points.MapFloat("scoreCandidates", 0.8, func(r rdd.Row) float64 {
			if len(cur) == 0 {
				return 0.0
			}
			_, d := nearest(r.([]float64), cur)
			return d
		})
		if _, err := eval.SumFloat(); err != nil {
			return Result{}, err
		}
	}
	if len(centers) < k.K {
		return Result{}, fmt.Errorf("kmeans: init produced %d centers, need %d: %w", len(centers), k.K, ErrInputTooSmall)
	}
	centers = centers[:k.K]

	// Stages 12-17: Lloyd iterations (assign+partial-sum map, merge reduce).
	for it := 0; it < k.Iterations; it++ {
		cur := centers
		assigned := points.MapPartitions("assign", 1.2, func(_ int, rows []rdd.Row) []rdd.Row {
			partial := map[int]*sumCount{}
			for _, r := range rows {
				p := r.([]float64)
				c, _ := nearest(p, cur)
				sc, ok := partial[c]
				if !ok {
					sc = &sumCount{Sum: make([]float64, len(p))}
					partial[c] = sc
				}
				for j := range p {
					sc.Sum[j] += p[j]
				}
				sc.N++
			}
			var out []rdd.Row
			for c := 0; c < len(cur); c++ {
				if sc, ok := partial[c]; ok {
					out = append(out, rdd.Pair{K: c, V: *sc})
				}
			}
			return out
		})
		merged := assigned.ReduceByKey(func(a, b any) any {
			x, y := a.(sumCount), b.(sumCount)
			sum := make([]float64, len(x.Sum))
			for j := range sum {
				sum[j] = x.Sum[j] + y.Sum[j]
			}
			return sumCount{Sum: sum, N: x.N + y.N}
		}, 0)
		byCluster, err := merged.CollectPairsMap()
		if err != nil {
			return Result{}, err
		}
		next := make([][]float64, len(centers))
		for c := range next {
			next[c] = centers[c]
			if v, ok := byCluster[c]; ok {
				sc := v.(sumCount)
				if sc.N > 0 {
					ctr := make([]float64, len(sc.Sum))
					for j := range ctr {
						ctr[j] = sc.Sum[j] / float64(sc.N)
					}
					next[c] = ctr
				}
			}
		}
		centers = next
	}

	// Stage 18: WSSSE pass.
	final := centers
	wsse, err := points.MapFloat("wssse", 0.8, func(r rdd.Row) float64 {
		_, d := nearest(r.([]float64), final)
		return d
	}).SumFloat()
	if err != nil {
		return Result{}, err
	}

	// Stage 19: summary pass (count points in the dominant half-space).
	dominant, err := points.Filter(func(r rdd.Row) bool {
		c, _ := nearest(r.([]float64), final)
		return c < k.K/2
	}).Count()
	if err != nil {
		return Result{}, err
	}

	return Result{
		Checksum: wsse + float64(dominant),
		Details: map[string]float64{
			"wssse":    wsse,
			"dominant": float64(dominant),
			"rows":     float64(k.Rows),
		},
	}, nil
}
