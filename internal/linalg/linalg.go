// Package linalg provides the small dense linear-algebra kernel the
// reproduction needs: Gaussian elimination with partial pivoting and
// ridge-regularized least squares via normal equations (used to fit
// CHOPPER's per-stage performance models, Eqs. 1-2 of the paper), plus the
// dense matrix, product and norm helpers the PCA workload's driver uses
// around its distributed power iterations.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system has no usable pivot.
var ErrSingular = errors.New("linalg: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: bad dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At reads element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns m * x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// SolveLinear solves A x = b in place copies using Gaussian elimination with
// partial pivoting. A must be square.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, fmt.Errorf("linalg: solve dimensions %dx%d vs %d", a.Rows, a.Cols, len(b))
	}
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-14 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[pivot*n+j] = m.Data[pivot*n+j], m.Data[col*n+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1.0 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Add(r, j, -f*m.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// LeastSquares fits y ~ X*beta with ridge regularization, returning beta.
// Feature columns are scaled to unit max-magnitude before solving — the
// model's features span many orders of magnitude (D^3 vs sqrt(P)) and the
// normal equations would otherwise be hopelessly ill-conditioned.
func LeastSquares(x [][]float64, y []float64, ridge float64) ([]float64, error) {
	n := len(x)
	if n == 0 {
		return nil, errors.New("linalg: no samples")
	}
	if len(y) != n {
		return nil, fmt.Errorf("linalg: %d samples vs %d targets", n, len(y))
	}
	p := len(x[0])
	if p == 0 {
		return nil, errors.New("linalg: no features")
	}
	for i, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("linalg: ragged sample %d", i)
		}
	}
	// Column scaling.
	scale := make([]float64, p)
	for j := 0; j < p; j++ {
		m := 0.0
		for i := 0; i < n; i++ {
			if v := math.Abs(x[i][j]); v > m {
				m = v
			}
		}
		if m == 0 {
			m = 1
		}
		scale[j] = m
	}
	// Normal equations on the scaled design: (Xs'Xs + ridge I) b = Xs'y.
	ata := NewMatrix(p, p)
	aty := make([]float64, p)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			xj := x[i][j] / scale[j]
			aty[j] += xj * y[i]
			for k := j; k < p; k++ {
				ata.Add(j, k, xj*x[i][k]/scale[k])
			}
		}
	}
	for j := 0; j < p; j++ {
		for k := 0; k < j; k++ {
			ata.Set(j, k, ata.At(k, j))
		}
		ata.Add(j, j, ridge)
	}
	beta, err := SolveLinear(ata, aty)
	if err != nil {
		return nil, err
	}
	for j := range beta {
		beta[j] /= scale[j]
	}
	return beta, nil
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dot dimension mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
