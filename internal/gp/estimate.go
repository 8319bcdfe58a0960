package gp

import (
	"cmp"
	"math"
	"slices"

	"phasetune/internal/optimize"
	"phasetune/internal/stats"
)

// EstimateNoise implements the paper's pooled-replicate estimator of the
// observation noise sigma_N^2: over the set S of inputs measured more than
// once, sum (y - ybar(x))^2 / (sum_x n(x) - |S|). It returns fallback when
// no input has replicates. The groups are summed in the order their input
// first occurs, so the result is the same bit pattern on every call.
func EstimateNoise(xs [][]float64, ys []float64, fallback float64) float64 {
	var e NoiseEstimator
	return e.Estimate(xs, ys, fallback)
}

// NoiseEstimator is EstimateNoise with its buffers kept across calls, for
// a caller that estimates the noise on every decision. The zero value is
// ready to use.
type NoiseEstimator struct {
	order []int
	runs  []run
	obs   []float64
}

// run is one group of equal inputs: order[lo:hi].
type run struct{ lo, hi int }

// Estimate returns EstimateNoise(xs, ys, fallback), with the same bits.
func (e *NoiseEstimator) Estimate(xs [][]float64, ys []float64, fallback float64) float64 {
	order, runs := e.group(xs)
	ss := 0.0
	dof := 0
	for _, r := range runs {
		if r.hi-r.lo < 2 {
			continue
		}
		obs := e.obs[:0]
		for _, i := range order[r.lo:r.hi] {
			obs = append(obs, ys[i])
		}
		e.obs = obs
		m := stats.Mean(obs)
		for _, y := range obs {
			d := y - m
			ss += d * d
		}
		dof += len(obs) - 1
	}
	if dof == 0 {
		return fallback
	}
	return ss / float64(dof)
}

// group orders the observation indices so that equal inputs are
// adjacent, each group in observation order, and returns the groups in
// the order their input first occurs. order[r.lo] is the first
// observation of group r.
func (e *NoiseEstimator) group(xs [][]float64) (order []int, runs []run) {
	order = e.order[:0]
	for i := range xs {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int { return compareInputs(xs[a], xs[b]) })
	runs = e.runs[:0]
	for r := range order {
		if r == 0 || compareInputs(xs[order[r-1]], xs[order[r]]) != 0 {
			runs = append(runs, run{lo: r})
		}
		runs[len(runs)-1].hi = r + 1
	}
	slices.SortFunc(runs, func(a, b run) int { return cmp.Compare(order[a.lo], order[b.lo]) })
	e.order, e.runs = order, runs
	return order, runs
}

// compareInputs is a total order on inputs in which two inputs are equal
// exactly when they have the same length and each coordinate has the
// same bits, -0 folded into +0.
func compareInputs(a, b []float64) int {
	if c := cmp.Compare(len(a), len(b)); c != 0 {
		return c
	}
	for i, v := range a {
		if c := cmp.Compare(math.Float64bits(v+0), math.Float64bits(b[i]+0)); c != 0 { // -0 + 0 is +0
			return c
		}
	}
	return 0
}

func keyOf(x []float64) string {
	// Inputs in this repository are small integer-valued vectors; a plain
	// textual key is exact and allocation-cheap at this scale.
	b := make([]byte, 0, 16)
	for _, v := range x {
		b = appendFloat(b, v)
		b = append(b, '|')
	}
	return string(b)
}

func appendFloat(b []byte, v float64) []byte {
	// Exact for the integers used as actions; fall back to bits otherwise.
	if n, ok := exactInt(v, 1e15); ok {
		if n < 0 {
			b = append(b, '-')
			n = -n
		}
		var tmp [20]byte
		i := len(tmp)
		for {
			i--
			tmp[i] = byte('0' + n%10)
			n /= 10
			if n == 0 {
				break
			}
		}
		return append(b, tmp[i:]...)
	}
	bits := math.Float64bits(v)
	for s := 56; s >= 0; s -= 8 {
		b = append(b, byte(bits>>uint(s)))
	}
	return b
}

// exactInt returns v as an integer when v is integer-valued and
// |v| < limit.
func exactInt(v, limit float64) (int64, bool) {
	//lint:allow floatsafe v == Trunc(v) is the canonical exact is-integer test; both sides share one rounding
	if v == math.Trunc(v) && math.Abs(v) < limit {
		return int64(v), true
	}
	return 0, false
}

// SampleVariance returns the sample variance of ys; the paper's
// GP-discontinuous strategy uses it as the fixed process variance alpha.
func SampleVariance(ys []float64) float64 { return stats.Variance(ys) }

// MLEOptions controls hyper-parameter estimation.
type MLEOptions struct {
	// ThetaMin/ThetaMax bound the range parameter search (log-spaced).
	ThetaMin, ThetaMax float64
	// Noise is the fixed observation-noise variance used during the
	// search (estimate it first with EstimateNoise).
	Noise float64
	// Basis is the trend used during estimation.
	Basis []BasisFunc
	// MaxEvals bounds likelihood evaluations.
	MaxEvals int
}

// EstimateMLE selects (alpha, theta) for the exponential kernel by
// maximizing the log marginal likelihood: theta by Brent search on a log
// scale and, for each theta, alpha by a short inner golden-section search.
// This mirrors "estimated from the data with an ML approach" for the
// GP-UCB variant — including its documented failure mode of
// over-confidence with few points.
func EstimateMLE(xs [][]float64, ys []float64, opt MLEOptions) (alpha, theta float64) {
	if opt.ThetaMin <= 0 {
		opt.ThetaMin = 0.1
	}
	if opt.ThetaMax <= opt.ThetaMin {
		opt.ThetaMax = 100 * opt.ThetaMin
	}
	if opt.MaxEvals <= 0 {
		opt.MaxEvals = 40
	}
	varY := stats.Variance(ys)
	if varY <= 0 {
		varY = 1
	}

	negLL := func(logTheta float64) float64 {
		th := math.Exp(logTheta)
		// Inner search over alpha around the sample variance.
		best := math.Inf(1)
		r := optimize.GoldenSection(func(logA float64) float64 {
			a := math.Exp(logA)
			fit, err := Model{
				Kernel: Exponential{Alpha: a, Theta: th},
				Noise:  opt.Noise,
				Basis:  opt.Basis,
			}.FitModel(xs, ys)
			if err != nil {
				return math.Inf(1)
			}
			return -fit.LogLikelihood()
		}, math.Log(varY)-4, math.Log(varY)+4, 1e-3, 12)
		if r.F < best {
			best = r.F
		}
		return best
	}
	r := optimize.Brent(negLL, math.Log(opt.ThetaMin), math.Log(opt.ThetaMax),
		1e-3, opt.MaxEvals)
	theta = math.Exp(r.X)

	// Recover the alpha chosen at the optimal theta.
	ra := optimize.GoldenSection(func(logA float64) float64 {
		a := math.Exp(logA)
		fit, err := Model{
			Kernel: Exponential{Alpha: a, Theta: theta},
			Noise:  opt.Noise,
			Basis:  opt.Basis,
		}.FitModel(xs, ys)
		if err != nil {
			return math.Inf(1)
		}
		return -fit.LogLikelihood()
	}, math.Log(varY)-4, math.Log(varY)+4, 1e-3, 16)
	alpha = math.Exp(ra.X)
	return alpha, theta
}

// Replicates returns, sorted by input key, the groups of repeated
// observations (useful for diagnostics and tests).
func Replicates(xs [][]float64, ys []float64) [][]float64 {
	type group struct {
		key string
		obs []float64
	}
	var e NoiseEstimator
	order, runs := e.group(xs)
	var groups []group
	for _, r := range runs {
		if r.hi-r.lo < 2 {
			continue
		}
		g := group{key: keyOf(xs[order[r.lo]])}
		for _, i := range order[r.lo:r.hi] {
			g.obs = append(g.obs, ys[i])
		}
		groups = append(groups, g)
	}
	slices.SortFunc(groups, func(a, b group) int { return cmp.Compare(a.key, b.key) })
	out := make([][]float64, len(groups))
	for i, g := range groups {
		out[i] = g.obs
	}
	return out
}
