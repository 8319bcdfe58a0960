package gp

import (
	"math"
	"sort"

	"phasetune/internal/optimize"
	"phasetune/internal/stats"
)

// EstimateNoise implements the paper's pooled-replicate estimator of the
// observation noise sigma_N^2: over the set S of inputs measured more than
// once, sum (y - ybar(x))^2 / (sum_x n(x) - |S|). It returns fallback when
// no input has replicates. The groups are summed in the order their input
// first occurs, so the result is the same bit pattern on every call.
func EstimateNoise(xs [][]float64, ys []float64, fallback float64) float64 {
	groups, _ := groupObservations(xs, ys)
	ss := 0.0
	dof := 0
	for _, obs := range groups {
		if len(obs) < 2 {
			continue
		}
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

// groupObservations splits ys into the groups of equal inputs, each in
// observation order, the groups in the order their input first occurs.
// first[g] is the index of group g's first observation. A 1-D input is
// keyed by its bits (-0 folded into +0), which allocates no key string.
func groupObservations(xs [][]float64, ys []float64) (groups [][]float64, first []int) {
	byBits := map[uint64]int{}
	byKey := map[string]int{}
	for i, x := range xs {
		var g int
		var ok bool
		if len(x) == 1 {
			b := math.Float64bits(x[0] + 0) // -0 + 0 is +0
			if g, ok = byBits[b]; !ok {
				g = len(first)
				byBits[b] = g
			}
		} else {
			k := keyOf(x)
			if g, ok = byKey[k]; !ok {
				g = len(first)
				byKey[k] = g
			}
		}
		if !ok {
			groups = append(groups, nil)
			first = append(first, i)
		}
		groups[g] = append(groups[g], ys[i])
	}
	return groups, first
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
	groups, first := groupObservations(xs, ys)
	keys := make([]string, len(groups))
	var reps []int
	for g, obs := range groups {
		if len(obs) > 1 {
			keys[g] = keyOf(xs[first[g]])
			reps = append(reps, g)
		}
	}
	sort.Slice(reps, func(a, b int) bool { return keys[reps[a]] < keys[reps[b]] })
	out := make([][]float64, len(reps))
	for i, g := range reps {
		out[i] = groups[g]
	}
	return out
}
