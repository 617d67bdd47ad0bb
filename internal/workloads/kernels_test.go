package workloads

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"chopper/internal/rdd"
)

// The scalar loops the built-ins ran before their kernels interleaved
// independent sums, kept verbatim as the exactness oracle: one accumulator
// at a time, every sum in coordinate order.

func nearestScalar(p []float64, centers [][]float64) (int, float64) {
	best, bestD := 0, math.Inf(1)
	for c, ctr := range centers {
		d := 0.0
		for j := range p {
			diff := p[j] - ctr[j]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

func covScalar(rows []rdd.Row, mean []float64) []float64 {
	dim := len(mean)
	acc := make([]float64, dim*dim)
	for _, r := range rows {
		v := r.([]float64)
		for a := 0; a < dim; a++ {
			da := v[a] - mean[a]
			for b := 0; b < dim; b++ {
				acc[a*dim+b] += da * (v[b] - mean[b])
			}
		}
	}
	return acc
}

func powerScalar(rows []rdd.Row, mean, cur []float64) []float64 {
	acc := make([]float64, len(mean))
	for _, r := range rows {
		x := r.([]float64)
		dot := 0.0
		for j := range x {
			dot += (x[j] - mean[j]) * cur[j]
		}
		for j := range x {
			acc[j] += dot * (x[j] - mean[j])
		}
	}
	return acc
}

func projectScalar(x, mean []float64, comps [][]float64) float64 {
	s := 0.0
	for _, comp := range comps {
		dot := 0.0
		for j := range x {
			dot += (x[j] - mean[j]) * comp[j]
		}
		s += dot * dot
	}
	return s
}

// sameFloat reports whether a kernel result equals its scalar twin: the
// same bits, or both NaN. Which NaN an operation on two NaNs returns
// depends on its operand order, and the compiler may commute a float add
// or multiply (a -race build of the same source does, on projectEnergy),
// so a NaN's payload is fixed by no source order. Every other bit is, the
// signs of zeros and infinities included.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// specials are the coordinates that break naive float reasoning.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, -5e-324, 2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64,
}

// gridVec fills a dim-long vector in one of three regimes: continuous
// values (mode 0), small integers so that distances tie exactly (mode 1),
// or continuous values salted with the specials (mode 2).
func gridVec(rng *rand.Rand, dim, mode int) []float64 {
	v := make([]float64, dim)
	for j := range v {
		switch {
		case mode == 1:
			v[j] = float64(rng.Intn(5) - 2)
		case mode == 2 && rng.Intn(4) == 0:
			v[j] = specials[rng.Intn(len(specials))]
		default:
			v[j] = rng.NormFloat64() * 10
		}
	}
	return v
}

func gridVecs(rng *rand.Rand, n, dim, mode int) [][]float64 {
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = gridVec(rng, dim, mode)
	}
	return vs
}

func asRows(vs [][]float64) []rdd.Row {
	rows := make([]rdd.Row, len(vs))
	for i, v := range vs {
		rows[i] = v
	}
	return rows
}

// TestKernelsMatchScalar compares every kernel with its scalar loop, bit
// for bit (by sameFloat for the PCA results, which may be NaN), over 0–9
// centres, 1–17 dimensions and 0–7 rows per partition (every remainder of
// the 4-wide and 2-wide passes), in each value regime, with duplicated
// centres whose ties must go to the lowest index.
func TestKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for dim := 1; dim <= 17; dim++ {
		for mode := 0; mode < 3; mode++ {
			for k := 0; k <= 9; k++ {
				centers := gridVecs(rng, k, dim, mode)
				if k >= 2 {
					// Duplicate a centre at a higher index: its distance
					// always ties the original's.
					i := rng.Intn(k - 1)
					centers[i+1+rng.Intn(k-1-i)] = centers[i]
				}
				points := gridVecs(rng, 6, dim, mode)
				if k > 0 {
					points = append(points, centers[rng.Intn(k)])
				}
				for _, p := range points {
					gi, gd := nearest(p, centers)
					wi, wd := nearestScalar(p, centers)
					if gi != wi || math.Float64bits(gd) != math.Float64bits(wd) {
						t.Fatalf("nearest dim=%d k=%d mode=%d: got (%d, %v), scalar (%d, %v)\np=%v\ncenters=%v", dim, k, mode, gi, gd, wi, wd, p, centers)
					}
				}
			}
			for n := 0; n <= 7; n++ {
				vs := gridVecs(rng, n, dim, mode)
				rows := asRows(vs)
				mean, cur := gridVec(rng, dim, mode), gridVec(rng, dim, mode)

				cov := make([]float64, dim*dim)
				covPartial(cov, rows, mean)
				for i, w := range covScalar(rows, mean) {
					if !sameFloat(cov[i], w) {
						t.Fatalf("covPartial dim=%d rows=%d mode=%d: acc[%d][%d] = %v, scalar %v", dim, n, mode, i/dim, i%dim, cov[i], w)
					}
				}

				pow := make([]float64, dim)
				powerPartial(pow, rows, mean, cur)
				for j, w := range powerScalar(rows, mean, cur) {
					if !sameFloat(pow[j], w) {
						t.Fatalf("powerPartial dim=%d rows=%d mode=%d: acc[%d] = %v, scalar %v", dim, n, mode, j, pow[j], w)
					}
				}

				comps := gridVecs(rng, n%6, dim, mode)
				for _, x := range append(vs, mean) {
					if g, w := projectEnergy(x, mean, comps), projectScalar(x, mean, comps); !sameFloat(g, w) {
						t.Fatalf("projectEnergy dim=%d comps=%d mode=%d: %v, scalar %v", dim, len(comps), mode, g, w)
					}
				}
			}
		}
	}
}

// FuzzNearestMatchesScalar decodes a point and up to nine centres from raw
// bytes, either as small integers (frequent exact ties) or as raw float64
// bit patterns (NaNs, infinities, subnormals, signed zeros), and requires
// nearest to return the scalar loop's index and distance bits.
func FuzzNearestMatchesScalar(f *testing.F) {
	f.Add(uint8(10), uint8(8), false, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(3), uint8(5), true, []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint8(17), uint8(9), false, []byte{0})
	f.Fuzz(func(t *testing.T, dim, k uint8, rawBits bool, data []byte) {
		n, nc := int(dim%17)+1, int(k%10)
		vals := make([]float64, n*(nc+1))
		for i := range vals {
			switch {
			case len(data) == 0: // all zeros: every distance ties
			case rawBits:
				var b [8]byte
				for j := range b {
					b[j] = data[(8*i+j)%len(data)]
				}
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			default:
				vals[i] = float64(int8(data[i%len(data)]) % 4)
			}
		}
		p, centers := vals[:n:n], make([][]float64, nc)
		for c := range centers {
			centers[c] = vals[n*(c+1) : n*(c+2) : n*(c+2)]
		}
		gi, gd := nearest(p, centers)
		wi, wd := nearestScalar(p, centers)
		if gi != wi || math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("got (%d, %v), scalar (%d, %v)\np=%v\ncenters=%v", gi, gd, wi, wd, p, centers)
		}
	})
}

// kernelInputs returns n points of dimension dim, eight centres and a
// mean, cur and two components in PCA's shape.
func kernelInputs(n, dim int) (rows []rdd.Row, centers [][]float64, mean, cur []float64, comps [][]float64) {
	rng := rand.New(rand.NewSource(1))
	return asRows(gridVecs(rng, n, dim, 0)), gridVecs(rng, 8, dim, 0),
		gridVec(rng, dim, 0), gridVec(rng, dim, 0), gridVecs(rng, 2, dim, 0)
}

// TestKernelsAllocateNothing pins that every kernel works in the caller's
// buffers: the partials fill the accumulator their closure allocates, and
// nearest and projectEnergy run once per row.
func TestKernelsAllocateNothing(t *testing.T) {
	rows, centers, mean, cur, comps := kernelInputs(64, 12)
	cov, pow := make([]float64, 12*12), make([]float64, 12)
	p := rows[0].([]float64)
	for _, k := range []struct {
		name string
		fn   func()
	}{
		{"nearest", func() { nearest(p, centers) }},
		{"covPartial", func() { covPartial(cov, rows, mean) }},
		{"powerPartial", func() { powerPartial(pow, rows, mean, cur) }},
		{"projectEnergy", func() { projectEnergy(p, mean, comps) }},
	} {
		if n := testing.AllocsPerRun(20, k.fn); n != 0 {
			t.Errorf("%s allocates %v objects per call, want 0", k.name, n)
		}
	}
}

// The kernel benchmarks report ns per point: KMeans' shape (10 dimensions,
// 8 centres) for nearest, PCA's (12 dimensions) for the partials.

var sinkCentre int

func BenchmarkNearest(b *testing.B) {
	rows, centers, _, _, _ := kernelInputs(4096, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rows {
			c, _ := nearest(r.([]float64), centers)
			sinkCentre += c
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/point")
}

func BenchmarkCovPartial(b *testing.B) {
	rows, _, mean, _, _ := kernelInputs(4096, 12)
	acc := make([]float64, 12*12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(acc)
		covPartial(acc, rows, mean)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/point")
}

func BenchmarkPowerPartial(b *testing.B) {
	rows, _, mean, cur, _ := kernelInputs(4096, 12)
	acc := make([]float64, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(acc)
		powerPartial(acc, rows, mean, cur)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/point")
}
