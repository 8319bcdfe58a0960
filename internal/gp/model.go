package gp

import (
	"errors"
	"fmt"
	"math"

	"phasetune/internal/linalg"
)

// BasisFunc is one trend basis function g_i(x); the trend is
// mu(x) = sum_i gamma_i * g_i(x) with coefficients estimated by
// generalized least squares, as in universal kriging.
type BasisFunc func(x []float64) float64

// ConstantBasis returns g(x) = 1 (ordinary kriging trend).
func ConstantBasis() BasisFunc { return func([]float64) float64 { return 1 } }

// LinearBasis returns g(x) = x[dim], the linear trend of the paper's
// GP-discontinuous model (the 1/x part being captured by the LP baseline).
func LinearBasis(dim int) BasisFunc { return func(x []float64) float64 { return x[dim] } }

// IndicatorBasis returns the dummy variable g(x) = 1 when
// pred(x) is true and 0 otherwise; the paper uses one per homogeneous
// machine group to model discontinuities.
func IndicatorBasis(pred func(x []float64) bool) BasisFunc {
	return func(x []float64) float64 {
		if pred(x) {
			return 1
		}
		return 0
	}
}

// Model specifies a Gaussian-Process prior: a stationary kernel, an
// observation noise variance, and a trend basis. A nil/empty Basis means a
// zero-mean GP (what the paper calls "no particular trend": predictions
// revert to 0 away from data, as in its Figure 3).
type Model struct {
	Kernel Kernel
	Noise  float64 // observation noise variance sigma_N^2
	Basis  []BasisFunc
}

// Fit is a conditioned Gaussian process ready for prediction.
type Fit struct {
	model   Model
	x       [][]float64
	chol    *linalg.Matrix // Cholesky factor L of K + noise*I
	cholT   []float64      // L^T row-major: back substitution reads rows
	gamma   []float64      // GLS trend coefficients
	resid   []float64      // K^-1 (y - F gamma)
	fginv   *linalg.Matrix // (F^T K^-1 F)^-1, nil without trend
	kinvFT  []float64      // (K^-1 F)^T row-major (p x n), nil without trend
	tab     *expTable      // nil unless Exponential on integer 1-D inputs
	xi      []int          // the inputs as integers when tab is set
	logLik  float64
	nObs    int
	nuggets float64
}

// ErrNoData reports a fit attempted with no observations.
var ErrNoData = errors.New("gp: no observations")

// jitterFrac stabilizes the covariance Cholesky for near-duplicate points.
const jitterFrac = 1e-10

// FitModel conditions the GP on observations (xs[i], ys[i]).
func (m Model) FitModel(xs [][]float64, ys []float64) (*Fit, error) {
	n := len(xs)
	if n == 0 {
		return nil, ErrNoData
	}
	if len(ys) != n {
		return nil, fmt.Errorf("gp: %d inputs but %d observations", n, len(ys))
	}
	if m.Kernel == nil {
		return nil, errors.New("gp: nil kernel")
	}
	if m.Noise < 0 {
		return nil, fmt.Errorf("gp: negative noise variance %v", m.Noise)
	}
	jitter := jitterFrac * (m.Kernel.Variance() + 1)
	tab, xi := newExpTable(m.Kernel, xs)
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			var v float64
			if tab != nil {
				v = tab.cov(xi[i] - xi[j])
			} else {
				v = m.Kernel.Cov(Distance(xs[i], xs[j]))
			}
			if i == j {
				v += m.Noise + jitter
			}
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	chol, err := linalg.Cholesky(k)
	if err != nil {
		return nil, fmt.Errorf("gp: covariance not positive definite: %w", err)
	}

	f := &Fit{model: m, x: deepCopy(xs), chol: chol, cholT: chol.T().Data,
		tab: tab, xi: xi, nObs: n, nuggets: jitter}

	p := len(m.Basis)
	resid := append([]float64(nil), ys...)
	if p > 0 {
		// Trend design matrix F (n x p).
		F := linalg.NewMatrix(n, p)
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				F.Set(i, j, m.Basis[j](xs[i]))
			}
		}
		kinvF := linalg.CholSolveMatrix(chol, F)
		ftKinvF := linalg.Mul(F.T(), kinvF) // p x p
		// Ridge-stabilize in case dummy columns are collinear with the
		// observed design (few points early in the exploration).
		for d := 0; d < p; d++ {
			ftKinvF.Add(d, d, 1e-10)
		}
		fginv, err := linalg.Inverse(ftKinvF)
		if err != nil {
			return nil, fmt.Errorf("gp: trend normal equations singular: %w", err)
		}
		kinvY := linalg.CholSolve(chol, ys)
		fty := linalg.MulVec(F.T(), kinvY)
		gamma := linalg.MulVec(fginv, fty)
		// Residual y - F gamma.
		fg := linalg.MulVec(F, gamma)
		for i := range resid {
			resid[i] -= fg[i]
		}
		f.gamma = gamma
		f.fginv = fginv
		f.kinvFT = kinvF.T().Data
	}
	f.resid = linalg.CholSolve(chol, resid)

	// Log marginal likelihood (up to the GLS plug-in for the trend).
	quad := 0.0
	for i := range resid {
		quad += resid[i] * f.resid[i]
	}
	f.logLik = -0.5*quad - 0.5*linalg.LogDetFromChol(chol) -
		0.5*float64(n)*math.Log(2*math.Pi)
	return f, nil
}

// LogLikelihood returns the log marginal likelihood of the fit.
func (f *Fit) LogLikelihood() float64 { return f.logLik }

// TrendCoefficients returns a copy of the estimated trend coefficients
// (nil for a zero-mean GP).
func (f *Fit) TrendCoefficients() []float64 {
	return append([]float64(nil), f.gamma...)
}

// NumObservations returns the number of conditioning points.
func (f *Fit) NumObservations() int { return f.nObs }

// deepCopy copies xs into one backing array.
func deepCopy(xs [][]float64) [][]float64 {
	size := 0
	for _, x := range xs {
		size += len(x)
	}
	flat := make([]float64, 0, size)
	out := make([][]float64, len(xs))
	for i, x := range xs {
		lo := len(flat)
		flat = append(flat, x...)
		out[i] = flat[lo:len(flat):len(flat)]
	}
	return out
}

// X1 is a convenience constructor for 1-D inputs.
func X1(xs ...float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = []float64{x}
	}
	return out
}
