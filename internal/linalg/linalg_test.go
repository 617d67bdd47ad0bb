package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSolveLinearKnownSystem(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveLinear(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 -> x=1, y=3.
	if !almostEq(x[0], 1, 1e-9) || !almostEq(x[1], 3, 1e-9) {
		t.Fatalf("solution = %v", x)
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := SolveLinear(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-12) || !almostEq(x[1], 2, 1e-12) {
		t.Fatalf("pivoted solution = %v", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Fatalf("singular system should error")
	}
}

func TestSolveLinearDimensionMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := SolveLinear(a, []float64{1, 2}); err == nil {
		t.Fatalf("non-square should error")
	}
}

func TestLeastSquaresRecoversCoefficients(t *testing.T) {
	// y = 3*a + 0.5*b - 2*c with distinct magnitudes per column.
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a := rng.Float64() * 1e6
		b := rng.Float64() * 10
		c := rng.Float64()
		x = append(x, []float64{a, b, c})
		y = append(y, 3*a+0.5*b-2*c)
	}
	beta, err := LeastSquares(x, y, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(beta[0], 3, 1e-4) || !almostEq(beta[1], 0.5, 1e-3) || !almostEq(beta[2], -2, 1e-2) {
		t.Fatalf("beta = %v", beta)
	}
}

func TestLeastSquaresIllConditionedFeatures(t *testing.T) {
	// Features spanning 12 orders of magnitude (like D^3 vs sqrt(P)) must
	// still fit thanks to column scaling + ridge.
	var x [][]float64
	var y []float64
	for d := 1.0; d <= 20; d++ {
		row := []float64{d * d * d, d, math.Sqrt(d)}
		x = append(x, row)
		y = append(y, 2e-6*row[0]+5*row[1]+30*row[2])
	}
	beta, err := LeastSquares(x, y, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	// Check predictions rather than raw coefficients.
	for i, row := range x {
		pred := beta[0]*row[0] + beta[1]*row[1] + beta[2]*row[2]
		if !almostEq(pred, y[i], 1e-3*math.Abs(y[i])+1e-6) {
			t.Fatalf("prediction %d off: %v vs %v", i, pred, y[i])
		}
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil, 0); err == nil {
		t.Fatalf("no samples should error")
	}
	if _, err := LeastSquares([][]float64{{1}}, []float64{1, 2}, 0); err == nil {
		t.Fatalf("length mismatch should error")
	}
	if _, err := LeastSquares([][]float64{{1, 2}, {1}}, []float64{1, 2}, 0); err == nil {
		t.Fatalf("ragged rows should error")
	}
	if _, err := LeastSquares([][]float64{{}}, []float64{1}, 0); err == nil {
		t.Fatalf("no features should error")
	}
}

func TestMulVecAndDot(t *testing.T) {
	m := NewMatrix(2, 3)
	for j := 0; j < 3; j++ {
		m.Set(0, j, float64(j+1))
		m.Set(1, j, float64((j+1)*10))
	}
	out := m.MulVec([]float64{1, 1, 1})
	if out[0] != 6 || out[1] != 60 {
		t.Fatalf("MulVec = %v", out)
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatalf("Dot wrong")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatalf("Norm2 wrong")
	}
}

// Property: SolveLinear solution actually satisfies A x = b for random
// well-conditioned systems.
func TestQuickSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		ax := a.MulVec(x)
		for i := range b {
			if !almostEq(ax[i], b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: least-squares residual of an exactly-linear dataset is ~zero.
func TestQuickLeastSquaresExactFit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c0, c1 := rng.NormFloat64()*10, rng.NormFloat64()*10
		var x [][]float64
		var y []float64
		for i := 0; i < 30; i++ {
			a, b := rng.Float64()*100, rng.Float64()
			x = append(x, []float64{a, b})
			y = append(y, c0*a+c1*b)
		}
		beta, err := LeastSquares(x, y, 1e-10)
		if err != nil {
			return false
		}
		for i := range x {
			pred := beta[0]*x[i][0] + beta[1]*x[i][1]
			if math.Abs(pred-y[i]) > 1e-5*(1+math.Abs(y[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
