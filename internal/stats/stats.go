// Package stats provides the statistical machinery behind the paper's
// empirical performance model (§III-B): ordinary least squares in the
// exact forms of Eq. 4 (linear, no intercept, over data size and rank
// count; and a linear-log variant for saturating synchronous rates), the
// coefficient of determination of Eq. 5, exponentially weighted averages
// for computation-time estimation, and summary statistics used by the
// variability analysis (§V-C).
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrDegenerate is returned when a fit cannot be computed (too few
// observations or a singular normal matrix).
var ErrDegenerate = errors.New("stats: degenerate fit")

// Fit is the result of a regression: coefficients plus goodness of fit.
type Fit struct {
	Beta []float64 // model coefficients
	R2   float64   // coefficient of determination in [0, 1]
}

// LeastSquares solves min ||X·β − y||² by normal equations with
// Gaussian elimination (partial pivoting). X is row-major: one row per
// observation, one column per regressor. The paper's Eq. 4,
// β = (XᵀX)⁻¹ Xᵀ Y, is exactly this computation.
func LeastSquares(x [][]float64, y []float64) ([]float64, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("%w: %d rows vs %d targets", ErrDegenerate, n, len(y))
	}
	k := len(x[0])
	if k == 0 || n < k {
		return nil, fmt.Errorf("%w: %d observations for %d coefficients", ErrDegenerate, n, k)
	}
	// Build XᵀX (k×k) and Xᵀy (k).
	xtx := make([][]float64, k)
	for i := range xtx {
		xtx[i] = make([]float64, k)
	}
	xty := make([]float64, k)
	for r, row := range x {
		if len(row) != k {
			return nil, fmt.Errorf("%w: ragged design matrix at row %d", ErrDegenerate, r)
		}
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y[r]
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	return solve(xtx, xty)
}

// solve performs in-place Gaussian elimination with partial pivoting on
// the augmented system a·β = b.
func solve(a [][]float64, b []float64) ([]float64, error) {
	k := len(a)
	for col := 0; col < k; col++ {
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("%w: singular normal matrix", ErrDegenerate)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := col + 1; r < k; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < k; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	beta := make([]float64, k)
	for i := k - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < k; j++ {
			s -= a[i][j] * beta[j]
		}
		beta[i] = s / a[i][i]
	}
	return beta, nil
}

// LinearNoIntercept2 fits y = β0·x0 + β1·x1 — the paper's Eq. 4 with
// x0 = data size and x1 = number of MPI ranks — and reports r² between
// fitted and observed values.
func LinearNoIntercept2(x0, x1, y []float64) (Fit, error) {
	if len(x0) != len(y) || len(x1) != len(y) {
		return Fit{}, fmt.Errorf("%w: length mismatch", ErrDegenerate)
	}
	x := make([][]float64, len(y))
	for i := range x {
		x[i] = []float64{x0[i], x1[i]}
	}
	beta, err := LeastSquares(x, y)
	if err != nil {
		return Fit{}, err
	}
	fitted := make([]float64, len(y))
	for i := range y {
		fitted[i] = beta[0]*x0[i] + beta[1]*x1[i]
	}
	return Fit{Beta: beta, R2: R2(fitted, y)}, nil
}

// Linear fits y = β0 + β1·x.
func Linear(x, y []float64) (Fit, error) {
	rows := make([][]float64, len(x))
	for i := range x {
		rows[i] = []float64{1, x[i]}
	}
	beta, err := LeastSquares(rows, y)
	if err != nil {
		return Fit{}, err
	}
	fitted := make([]float64, len(y))
	for i := range y {
		fitted[i] = beta[0] + beta[1]*x[i]
	}
	return Fit{Beta: beta, R2: R2(fitted, y)}, nil
}

// LinearLog fits y = β0 + β1·ln(x), the form the paper uses for the
// saturating synchronous aggregate bandwidth (§V-A1). All x must be
// positive.
func LinearLog(x, y []float64) (Fit, error) {
	rows := make([][]float64, len(x))
	for i, v := range x {
		if v <= 0 {
			return Fit{}, fmt.Errorf("%w: non-positive x for log fit", ErrDegenerate)
		}
		rows[i] = []float64{1, math.Log(v)}
	}
	beta, err := LeastSquares(rows, y)
	if err != nil {
		return Fit{}, err
	}
	fitted := make([]float64, len(y))
	for i := range y {
		fitted[i] = beta[0] + beta[1]*math.Log(x[i])
	}
	return Fit{Beta: beta, R2: R2(fitted, y)}, nil
}

// EvalLinearLog evaluates a LinearLog fit at x.
func (f Fit) EvalLinearLog(x float64) float64 {
	return f.Beta[0] + f.Beta[1]*math.Log(x)
}

// EvalLinear evaluates a Linear fit at x.
func (f Fit) EvalLinear(x float64) float64 {
	return f.Beta[0] + f.Beta[1]*x
}

// EvalNoIntercept2 evaluates a LinearNoIntercept2 fit at (x0, x1).
func (f Fit) EvalNoIntercept2(x0, x1 float64) float64 {
	return f.Beta[0]*x0 + f.Beta[1]*x1
}

// R2 is the paper's Eq. 5 — Cov(X,Y)²/(Var(X)·Var(Y)) — computed between
// fitted and observed values: the squared Pearson correlation. Returns 0
// when either side has zero variance.
func R2(fitted, observed []float64) float64 {
	if len(fitted) != len(observed) || len(fitted) < 2 {
		return 0
	}
	mf := Mean(fitted)
	mo := Mean(observed)
	var cov, vf, vo float64
	for i := range fitted {
		df := fitted[i] - mf
		do := observed[i] - mo
		cov += df * do
		vf += df * df
		vo += do * do
	}
	if vf == 0 || vo == 0 {
		return 0
	}
	r := cov / math.Sqrt(vf*vo)
	return r * r
}

// Mean returns the arithmetic mean; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance; 0 for fewer than 2 samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation (σ/μ); 0 when the mean is 0.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// EWMA is an exponentially weighted moving average — the paper's
// "weighted average over the measurements taken in previous iterations"
// used to estimate the next computation phase (§III-B). Alpha in (0, 1]
// weights the newest observation.
type EWMA struct {
	Alpha float64
	value float64
	ready bool
}

// NewEWMA returns an EWMA with the given weight for new observations.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{Alpha: alpha}
}

// Observe folds a new measurement into the average.
func (e *EWMA) Observe(v float64) {
	if !e.ready {
		e.value = v
		e.ready = true
		return
	}
	e.value = e.Alpha*v + (1-e.Alpha)*e.value
}

// Value returns the current estimate; 0 before any observation.
func (e *EWMA) Value() float64 { return e.value }

// Ready reports whether at least one observation has been folded in.
func (e *EWMA) Ready() bool { return e.ready }
