package workloads

import (
	"fmt"

	"chopper/internal/linalg"
	"chopper/internal/rdd"
)

// PCA reproduces the SparkBench PCA workload: a compute- and network-
// intensive pipeline that extracts the top principal components of a
// correlated dataset through multiple shuffling iterations:
//
//	stage 0       parse + cache (count)
//	stages 1-2    mean vector (map + reduce)
//	stages 3-4    covariance accumulation (map + reduce)
//	stages 5...   distributed power iterations, 2 stages each
//	final stage   projection pass over the data
type PCA struct {
	Rows       int
	Dim        int
	Components int
	PowerIters int // distributed iterations per component
	Seed       int64

	memo sourceMemo
}

// NewPCA returns the paper-shaped PCA workload.
func NewPCA() *PCA {
	return &PCA{Rows: 20000, Dim: 12, Components: 2, PowerIters: 3, Seed: 2}
}

// Name implements Workload.
func (p *PCA) Name() string { return "pca" }

// DefaultInputBytes implements Workload (Table I: 27.6 GB).
func (p *PCA) DefaultInputBytes() int64 { return int64(27.6 * GB) }

// vector writes the i-th sample into v (p.Dim long): a low-rank signal
// plus noise, so the data genuinely has dominant principal components.
func (p *PCA) vector(i int, v []float64) {
	s1 := detNorm(p.Seed, int64(i)) * 5
	s2 := detNorm(p.Seed+99, int64(i)) * 2
	for d := range v {
		v[d] = s1*float64((d%3)+1)/3 + s2*float64(d%2) + detNorm(p.Seed+int64(d)+7, int64(i))*0.5
	}
}

// vecVal is a vector combiner value with a count.
type vecVal struct {
	Vec []float64
	N   int64
}

// LogicalBytes implements rdd.Sizer.
func (v vecVal) LogicalBytes() int64 { return int64(8*len(v.Vec)) + 16 }

// ScaleInvariant implements rdd.ScaleInvariant.
func (v vecVal) ScaleInvariant() bool { return true }

// matVal is a packed symmetric-matrix combiner value.
type matVal struct {
	M []float64 // row-major dim x dim
	N int64
}

// LogicalBytes implements rdd.Sizer.
func (m matVal) LogicalBytes() int64 { return int64(8*len(m.M)) + 16 }

// ScaleInvariant implements rdd.ScaleInvariant.
func (m matVal) ScaleInvariant() bool { return true }

func addVecs(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// The kernels below keep every sum's own operation order and only run
// independent sums side by side, so their results are bit-identical to
// one-sum-at-a-time loops (kernels_test.go keeps those as the oracle).
// All vectors are len(mean) long.

// covPartial sums the outer products (x−mean)(x−mean)ᵀ of the rows into
// acc, a zeroed row-major len(mean)² matrix. It accumulates the upper
// triangle only and mirrors it once at the end: acc[a][b] and acc[b][a]
// would receive the same products in the same row order, and
// multiplication commutes.
func covPartial(acc []float64, rows []rdd.Row, mean []float64) {
	dim := len(mean)
	for _, r := range rows {
		v := r.([]float64)[:dim]
		for a, va := range v {
			da := va - mean[a]
			vb := v[a:]
			row, mb := acc[a*dim+a:][:len(vb)], mean[a:][:len(vb)]
			for b, x := range vb {
				row[b] += da * (x - mb[b])
			}
		}
	}
	for a := 0; a < dim; a++ {
		for b := a + 1; b < dim; b++ {
			acc[b*dim+a] = acc[a*dim+b]
		}
	}
}

// powerPartial adds ((x−mean)·cur)(x−mean) of every row into acc. Rows go
// two per pass: their dot products are independent chains, and each
// acc[j] still receives row i's term before row i+1's.
func powerPartial(acc []float64, rows []rdd.Row, mean, cur []float64) {
	dim := len(mean)
	acc, cur = acc[:dim], cur[:dim]
	i := 0
	for ; i+1 < len(rows); i += 2 {
		x0, x1 := rows[i].([]float64)[:dim], rows[i+1].([]float64)[:dim]
		dot0, dot1 := 0.0, 0.0
		for j, m := range mean {
			dot0 += (x0[j] - m) * cur[j]
			dot1 += (x1[j] - m) * cur[j]
		}
		for j, m := range mean {
			acc[j] += dot0 * (x0[j] - m)
			acc[j] += dot1 * (x1[j] - m)
		}
	}
	if i < len(rows) {
		x := rows[i].([]float64)[:dim]
		dot := 0.0
		for j, m := range mean {
			dot += (x[j] - m) * cur[j]
		}
		for j, m := range mean {
			acc[j] += dot * (x[j] - m)
		}
	}
}

// projectEnergy returns Σ_c ((x−mean)·comps[c])², the squares added in
// component order. Components go two per pass over x.
func projectEnergy(x, mean []float64, comps [][]float64) float64 {
	x = x[:len(mean)]
	s := 0.0
	c := 0
	for ; c+1 < len(comps); c += 2 {
		u, w := comps[c][:len(x)], comps[c+1][:len(x)]
		du, dw := 0.0, 0.0
		for j, m := range mean {
			d := x[j] - m
			du += d * u[j]
			dw += d * w[j]
		}
		s += du * du
		s += dw * dw
	}
	if c < len(comps) {
		u := comps[c][:len(x)]
		dot := 0.0
		for j, m := range mean {
			dot += (x[j] - m) * u[j]
		}
		s += dot * dot
	}
	return s
}

// Run implements Workload.
func (p *PCA) Run(ctx *rdd.Context, inputBytes int64) (Result, error) {
	physRow := int64(8*p.Dim) + 16
	setScale(ctx, inputBytes, int64(p.Rows)*physRow)

	source := ctx.Generate("pcaInput", 0, inputBytes, func(split, total int) []rdd.Row {
		rows := strideBuf(p.Rows, split, total)
		next := vectorSlab(cap(rows), p.Dim)
		strideRows(p.Rows, split, total, func(i int) {
			v := next()
			p.vector(i, v)
			rows = append(rows, v)
		})
		return rows
	})
	p.memo.wrap(genParams{int64(p.Rows), int64(p.Dim), p.Seed}, source)
	vectors := source.MapCost("parseVector", 5.0, func(r rdd.Row) rdd.Row { return r }).Cache()
	n, err := vectors.Count() // stage 0
	if err != nil {
		return Result{}, err
	}
	if n == 0 {
		return Result{}, fmt.Errorf("pca: empty input: %w", ErrInputTooSmall)
	}

	// Stages 1-2: mean vector.
	meanJob := vectors.MapPartitions("partialMean", 0.5, func(_ int, rows []rdd.Row) []rdd.Row {
		sum := make([]float64, p.Dim)
		var cnt int64
		for _, r := range rows {
			v := r.([]float64)
			for j := range v {
				sum[j] += v[j]
			}
			cnt++
		}
		return []rdd.Row{rdd.Pair{K: 0, V: vecVal{Vec: sum, N: cnt}}}
	}).ReduceByKey(func(a, b any) any {
		x, y := a.(vecVal), b.(vecVal)
		return vecVal{Vec: addVecs(x.Vec, y.Vec), N: x.N + y.N}
	}, 0)
	meanRes, err := meanJob.CollectPairsMap()
	if err != nil {
		return Result{}, err
	}
	mv := meanRes[0].(vecVal)
	mean := make([]float64, p.Dim)
	for j := range mean {
		mean[j] = mv.Vec[j] / float64(mv.N)
	}

	// Stages 3-4: covariance matrix accumulation (heavy outer products).
	covJob := vectors.MapPartitions("outerProducts", 3.5, func(_ int, rows []rdd.Row) []rdd.Row {
		acc := make([]float64, p.Dim*p.Dim)
		covPartial(acc, rows, mean)
		return []rdd.Row{rdd.Pair{K: 0, V: matVal{M: acc, N: int64(len(rows))}}}
	}).ReduceByKey(func(a, b any) any {
		x, y := a.(matVal), b.(matVal)
		m := make([]float64, len(x.M))
		for i := range m {
			m[i] = x.M[i] + y.M[i]
		}
		return matVal{M: m, N: x.N + y.N}
	}, 0)
	covRes, err := covJob.CollectPairsMap()
	if err != nil {
		return Result{}, err
	}
	cv := covRes[0].(matVal)
	cov := linalg.NewMatrix(p.Dim, p.Dim)
	for a := 0; a < p.Dim; a++ {
		for b := 0; b < p.Dim; b++ {
			cov.Set(a, b, cv.M[a*p.Dim+b]/float64(cv.N))
		}
	}

	// Distributed power iterations: each refines the current component by a
	// cluster pass computing X'(Xv) partials (2 stages per iteration).
	var comps [][]float64
	var eigvals []float64
	work := cov.Clone()
	for c := 0; c < p.Components; c++ {
		v := make([]float64, p.Dim)
		for j := range v {
			v[j] = 1
		}
		for it := 0; it < p.PowerIters; it++ {
			cur := v
			// Snapshot the components extracted so far: comps keeps growing
			// after this transform is defined, and the closure is lazy — a
			// task retry or lineage re-execution after later appends would
			// deflate against components that did not exist when this
			// iteration originally ran.
			deflate := comps
			iter := vectors.MapPartitions("powerStep", 2.0, func(_ int, rows []rdd.Row) []rdd.Row {
				acc := make([]float64, p.Dim)
				powerPartial(acc, rows, mean, cur)
				// Deflate previously extracted components.
				for _, comp := range deflate {
					proj := linalg.Dot(acc, comp)
					for j := range acc {
						acc[j] -= proj * comp[j]
					}
				}
				return []rdd.Row{rdd.Pair{K: 0, V: vecVal{Vec: acc, N: 1}}}
			}).ReduceByKey(func(a, b any) any {
				x, y := a.(vecVal), b.(vecVal)
				return vecVal{Vec: addVecs(x.Vec, y.Vec), N: x.N + y.N}
			}, 0)
			res, err := iter.CollectPairsMap()
			if err != nil {
				return Result{}, err
			}
			acc := res[0].(vecVal).Vec
			norm := linalg.Norm2(acc)
			if norm == 0 {
				return Result{}, fmt.Errorf("pca: power iteration degenerated: %w", ErrInputTooSmall)
			}
			for j := range acc {
				acc[j] /= norm
			}
			v = acc
		}
		sv := work.MulVec(v)
		eigvals = append(eigvals, linalg.Dot(v, sv))
		comps = append(comps, v)
	}

	// Final stage: project the data and sum squared projections.
	energy, err := vectors.MapFloat("project", 1.2, func(r rdd.Row) float64 {
		return projectEnergy(r.([]float64), mean, comps)
	}).SumFloat()
	if err != nil {
		return Result{}, err
	}

	sum := 0.0
	for _, ev := range eigvals {
		sum += ev
	}
	return Result{
		Checksum: energy,
		Details: map[string]float64{
			"eigsum": sum,
			"energy": energy,
			"rows":   float64(p.Rows),
		},
	}, nil
}
