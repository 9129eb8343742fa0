package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLeastSquaresExact(t *testing.T) {
	// y = 2 + 3x, noiseless.
	x := [][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}}
	y := []float64{2, 5, 8, 11}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(beta[0], 2, 1e-9) || !approx(beta[1], 3, 1e-9) {
		t.Fatalf("beta = %v, want [2 3]", beta)
	}
}

func TestLeastSquaresThreeColumns(t *testing.T) {
	// y = 1 + 2a - 3b.
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x = append(x, []float64{1, a, b})
		y = append(y, 1+2*a-3*b)
	}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, -3}
	for i := range want {
		if !approx(beta[i], want[i], 1e-6) {
			t.Fatalf("beta = %v, want %v", beta, want)
		}
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil); !errors.Is(err, ErrDegenerate) {
		t.Errorf("empty: err = %v", err)
	}
	// Fewer rows than columns.
	if _, err := LeastSquares([][]float64{{1, 2}}, []float64{1}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("underdetermined: err = %v", err)
	}
	// Perfectly collinear columns → singular.
	x := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	if _, err := LeastSquares(x, []float64{1, 2, 3}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("singular: err = %v", err)
	}
	// Ragged rows.
	if _, err := LeastSquares([][]float64{{1, 2}, {1}}, []float64{1, 2}); !errors.Is(err, ErrDegenerate) {
		t.Errorf("ragged: err = %v", err)
	}
}

func TestLinearNoIntercept2RecoversPlane(t *testing.T) {
	// y = 0.5*size + 7*ranks with slight noise — the Eq. 4 form.
	rng := rand.New(rand.NewSource(7))
	var x0, x1, y []float64
	for i := 0; i < 100; i++ {
		s := rng.Float64() * 1e9
		r := float64(rng.Intn(1000) + 1)
		x0 = append(x0, s)
		x1 = append(x1, r)
		y = append(y, 0.5*s+7*r+rng.NormFloat64()*10)
	}
	fit, err := LinearNoIntercept2(x0, x1, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fit.Beta[0], 0.5, 1e-3) {
		t.Errorf("beta0 = %v, want 0.5", fit.Beta[0])
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %v, want > 0.99 on near-noiseless data", fit.R2)
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{3, 5, 7, 9, 11} // y = 1 + 2x
	fit, err := Linear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fit.Beta[0], 1, 1e-9) || !approx(fit.Beta[1], 2, 1e-9) {
		t.Fatalf("beta = %v, want [1 2]", fit.Beta)
	}
	if !approx(fit.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
	if !approx(fit.EvalLinear(10), 21, 1e-9) {
		t.Fatalf("EvalLinear(10) = %v, want 21", fit.EvalLinear(10))
	}
}

func TestLinearLogFitsSaturatingCurve(t *testing.T) {
	// Bandwidth that grows as 5 + 2·ln(nodes) — the shape the paper fits
	// for synchronous aggregate bandwidth.
	var x, y []float64
	for n := 1; n <= 2048; n *= 2 {
		x = append(x, float64(n))
		y = append(y, 5+2*math.Log(float64(n)))
	}
	fit, err := LinearLog(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fit.Beta[0], 5, 1e-9) || !approx(fit.Beta[1], 2, 1e-9) {
		t.Fatalf("beta = %v, want [5 2]", fit.Beta)
	}
	if !approx(fit.EvalLinearLog(math.E), 7, 1e-9) {
		t.Fatalf("EvalLinearLog(e) = %v, want 7", fit.EvalLinearLog(math.E))
	}
}

func TestLinearLogRejectsNonPositive(t *testing.T) {
	if _, err := LinearLog([]float64{0, 1}, []float64{1, 2}); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("err = %v, want ErrDegenerate", err)
	}
}

func TestR2Bounds(t *testing.T) {
	perfect := []float64{1, 2, 3, 4}
	if r := R2(perfect, perfect); !approx(r, 1, 1e-12) {
		t.Errorf("R2(x,x) = %v, want 1", r)
	}
	if r := R2([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Errorf("R2 with zero-variance fitted = %v, want 0", r)
	}
	if r := R2([]float64{1}, []float64{1}); r != 0 {
		t.Errorf("R2 single sample = %v, want 0", r)
	}
	if r := R2([]float64{1, 2}, []float64{1, 2, 3}); r != 0 {
		t.Errorf("R2 length mismatch = %v, want 0", r)
	}
}

func TestR2InUnitIntervalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 2
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * 100
			b[i] = rng.NormFloat64() * 100
		}
		r := R2(a, b)
		return r >= 0 && r <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !approx(m, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); !approx(v, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); !approx(s, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", s)
	}
	if cv := CV(xs); !approx(cv, 0.4, 1e-12) {
		t.Errorf("CV = %v, want 0.4", cv)
	}
}

func TestSummaryStatsEmptyAndDegenerate(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev(nil) != 0 || CV(nil) != 0 {
		t.Error("empty-slice stats must be zero")
	}
	if Variance([]float64{5}) != 0 {
		t.Error("single-sample variance must be zero")
	}
	if CV([]float64{0, 0}) != 0 {
		t.Error("zero-mean CV must be zero")
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.3)
	if e.Ready() {
		t.Fatal("fresh EWMA reports ready")
	}
	for i := 0; i < 100; i++ {
		e.Observe(42)
	}
	if !e.Ready() || !approx(e.Value(), 42, 1e-9) {
		t.Fatalf("Value = %v, want 42", e.Value())
	}
}

func TestEWMAFirstObservationSeeds(t *testing.T) {
	e := NewEWMA(0.1)
	e.Observe(100)
	if !approx(e.Value(), 100, 1e-12) {
		t.Fatalf("Value after first observation = %v, want 100", e.Value())
	}
	e.Observe(0)
	if !approx(e.Value(), 90, 1e-12) {
		t.Fatalf("Value = %v, want 90", e.Value())
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestLeastSquaresMatchesClosedFormProperty(t *testing.T) {
	// For 1D no-intercept fits, OLS has the closed form Σxy/Σx².
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 2
		x := make([][]float64, n)
		y := make([]float64, n)
		var sxy, sxx float64
		for i := 0; i < n; i++ {
			xv := rng.Float64()*100 + 1
			yv := rng.NormFloat64() * 50
			x[i] = []float64{xv}
			y[i] = yv
			sxy += xv * yv
			sxx += xv * xv
		}
		beta, err := LeastSquares(x, y)
		if err != nil {
			return false
		}
		return approx(beta[0], sxy/sxx, 1e-6*math.Max(1, math.Abs(sxy/sxx)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
