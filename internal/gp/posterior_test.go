package gp

import (
	"math"
	"testing"

	"phasetune/internal/linalg"
	"phasetune/internal/stats"
)

// predictOracle is the per-point posterior the batched PredictInto must
// reproduce bit for bit: kernel values from Kernel.Cov, a two-sided
// CholSolve per point, and the trend terms through linalg.
func predictOracle(f *Fit, x []float64) (mean, sd float64) {
	n := f.nObs
	kstar := make([]float64, n)
	for i := 0; i < n; i++ {
		kstar[i] = f.model.Kernel.Cov(Distance(x, f.x[i]))
	}
	mean = linalg.Dot(kstar, f.resid)
	kinvK := linalg.CholSolve(f.chol, kstar)
	variance := f.model.Kernel.Variance() - linalg.Dot(kstar, kinvK)

	if p := len(f.model.Basis); p > 0 {
		fx := make([]float64, p)
		for j := 0; j < p; j++ {
			fx[j] = f.model.Basis[j](x)
		}
		mean += linalg.Dot(fx, f.gamma)
		u := make([]float64, p)
		for j := 0; j < p; j++ {
			s := fx[j]
			for i := 0; i < n; i++ {
				s -= f.kinvFT[j*n+i] * kstar[i]
			}
			u[j] = s
		}
		variance += linalg.Dot(u, linalg.MulVec(f.fginv, u))
	}
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance)
}

// cholOracle is the Cholesky factor of K + noise*I with every entry
// from Kernel.Cov, as FitModel built it before the kernel table.
func cholOracle(m Model, xs [][]float64, jitter float64) (*linalg.Matrix, error) {
	n := len(xs)
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := m.Kernel.Cov(Distance(xs[i], xs[j]))
			if i == j {
				v += m.Noise + jitter
			}
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	return linalg.Cholesky(k)
}

// posteriorCase is one randomized fit and candidate set.
type posteriorCase struct {
	seed     int64
	kernel   uint8 // 0 Exponential, 1 squared exponential, 2 Matérn 3/2, 3 Matérn 5/2
	dim      uint8 // 1 or 2
	integral bool  // integer-valued inputs
	nObs     uint8
	nCand    uint8
	basis    uint8 // bit 0 constant, bit 1 linear, bits 2-3 dummy count, bit 4 collinear dummies
	noise    uint8 // noise variance noise/16; 0 is noise-free
	smooth   bool  // range 50x longer: near-singular K
}

func (pc posteriorCase) build() (Model, [][]float64, []float64, [][]float64) {
	rng := stats.NewRNG(pc.seed)
	dim := 1 + int(pc.dim%2)
	nObs := 1 + int(pc.nObs%64)
	nCand := 1 + int(pc.nCand%130)
	span := 2 + rng.Intn(40)
	point := func() []float64 {
		x := make([]float64, dim)
		for d := range x {
			if pc.integral {
				x[d] = float64(rng.Intn(span))
			} else {
				x[d] = rng.Float64() * float64(span)
			}
		}
		return x
	}
	xs := make([][]float64, nObs)
	ys := make([]float64, nObs)
	for i := range xs {
		xs[i] = point()
		ys[i] = rng.Normal(0, 3) + xs[i][0]/4
	}
	cands := make([][]float64, nCand)
	for c := range cands {
		if c%3 == 0 {
			cands[c] = xs[rng.Intn(nObs)] // at an observation
		} else {
			cands[c] = point()
		}
	}
	alpha := 0.1 + rng.Float64()*5
	theta := 0.3 + rng.Float64()*6
	if pc.smooth {
		theta *= 50
	}
	var k Kernel
	switch pc.kernel % 4 {
	case 0:
		k = Exponential{alpha, theta}
	case 1:
		k = SquaredExponential{alpha, theta}
	case 2:
		k = Matern32{alpha, theta}
	default:
		k = Matern52{alpha, theta}
	}
	var basis []BasisFunc
	if pc.basis&1 != 0 {
		basis = append(basis, ConstantBasis())
	}
	if pc.basis&2 != 0 {
		basis = append(basis, LinearBasis(0))
	}
	for d := 0; d < int(pc.basis>>2&3); d++ {
		lo := float64(rng.Intn(span))
		hi := lo + float64(1+rng.Intn(span))
		dummy := IndicatorBasis(func(x []float64) bool { return x[0] > lo && x[0] <= hi })
		basis = append(basis, dummy)
		if pc.basis&16 != 0 {
			basis = append(basis, dummy)
		}
	}
	return Model{Kernel: k, Noise: float64(pc.noise) / 16, Basis: basis}, xs, ys, cands
}

// checkPosterior requires the fit's Cholesky factor and its batched
// posterior at every candidate to be bit-equal to the oracles. It
// returns how many candidates had their variance clamped to 0.
func checkPosterior(t *testing.T, pc posteriorCase) (clamped int) {
	t.Helper()
	m, xs, ys, cands := pc.build()
	fit, err := m.FitModel(xs, ys)
	if err != nil {
		return 0 // singular trend normal equations: nothing to predict
	}
	want, err := cholOracle(m, xs, fit.nuggets)
	if err != nil {
		t.Fatalf("%+v: oracle Cholesky failed where FitModel succeeded: %v", pc, err)
	}
	for i, v := range want.Data {
		if math.Float64bits(v) != math.Float64bits(fit.chol.Data[i]) {
			t.Fatalf("%+v: L[%d] = %v, oracle %v", pc, i, fit.chol.Data[i], v)
		}
	}
	mean := make([]float64, len(cands))
	sd := make([]float64, len(cands))
	fit.PredictInto(cands, mean, sd)
	for c, x := range cands {
		om, osd := predictOracle(fit, x)
		if !sameBits(mean[c], om) || !sameBits(sd[c], osd) {
			t.Fatalf("%+v: candidate %d at %v: (%v, %v), oracle (%v, %v)", pc, c, x, mean[c], sd[c], om, osd)
		}
		if c == 0 {
			if pm, psd := fit.Predict(x); !sameBits(pm, om) || !sameBits(psd, osd) {
				t.Fatalf("%+v: Predict(%v) = (%v, %v), oracle (%v, %v)", pc, x, pm, psd, om, osd)
			}
		}
		if osd == 0 {
			clamped++
		}
	}
	return clamped
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// posteriorSeeds cover the kernel-table path (Exponential, integer 1-D
// inputs) and the generic one (2-D, non-integer, the other kernels),
// replicates, one observation, no basis, collinear dummies, a short
// last block and noise-free fits where the variance is clamped.
var posteriorSeeds = []posteriorCase{
	{seed: 1, kernel: 0, dim: 0, integral: true, nObs: 49, nCand: 118, basis: 3 | 2<<2, noise: 4},    // GP-discontinuous shape
	{seed: 2, kernel: 0, dim: 0, integral: true, nObs: 63, nCand: 3, basis: 3 | 3<<2 | 16, noise: 2}, // replicates, collinear dummies
	{seed: 3, kernel: 0, dim: 0, integral: true, nObs: 0, nCand: 5, basis: 1, noise: 4},              // one observation
	{seed: 4, kernel: 0, dim: 0, integral: true, nObs: 20, nCand: 6, basis: 0, noise: 0},             // no basis, noise-free
	{seed: 5, kernel: 0, dim: 1, integral: true, nObs: 30, nCand: 21, basis: 3, noise: 4},            // 2-D
	{seed: 6, kernel: 0, dim: 0, integral: false, nObs: 25, nCand: 9, basis: 3 | 1<<2, noise: 1},     // non-integer
	{seed: 7, kernel: 1, dim: 0, integral: false, nObs: 7, nCand: 100, basis: 0, noise: 0},           // Figure 3 shape
	{seed: 8, kernel: 2, dim: 1, integral: true, nObs: 40, nCand: 13, basis: 1 | 1<<2, noise: 8},
	{seed: 9, kernel: 3, dim: 0, integral: true, nObs: 40, nCand: 2, basis: 3 | 2<<2 | 16, noise: 3},
	{seed: 10, kernel: 0, dim: 0, integral: true, nObs: 63, nCand: 0, basis: 3, noise: 0}, // one candidate
	// Near-singular noise-free fits with collinear dummies: rounding
	// takes some variances below 0.
	{seed: 8, kernel: 3, dim: 0, integral: true, nObs: 8, nCand: 60, basis: 3 | 2<<2 | 16, noise: 0, smooth: true},
	{seed: 72, kernel: 1, dim: 0, integral: false, nObs: 8, nCand: 60, basis: 3 | 2<<2 | 16, noise: 0, smooth: true},
}

func TestPredictIntoMatchesOracle(t *testing.T) {
	for _, pc := range posteriorSeeds {
		checkPosterior(t, pc)
	}
	rng := stats.NewRNG(11)
	for i := 0; i < 300; i++ {
		checkPosterior(t, posteriorCase{
			seed: int64(i), kernel: uint8(rng.Intn(4)), dim: uint8(rng.Intn(2)),
			integral: rng.Intn(4) != 0, nObs: uint8(rng.Intn(64)), nCand: uint8(rng.Intn(130)),
			basis: uint8(rng.Intn(32)), noise: uint8(rng.Intn(9)),
		})
	}
}

// The noise-free seeds must reach the variance clamp, or they no longer
// cover it.
func TestPredictIntoClampSeeds(t *testing.T) {
	clamped := 0
	for _, pc := range posteriorSeeds {
		if pc.noise == 0 {
			clamped += checkPosterior(t, pc)
		}
	}
	if clamped == 0 {
		t.Fatal("no noise-free seed clamps a negative variance")
	}
}

func FuzzPosteriorBatch(f *testing.F) {
	for _, pc := range posteriorSeeds {
		f.Add(pc.seed, pc.kernel, pc.dim, pc.integral, pc.nObs, pc.nCand, pc.basis, pc.noise, pc.smooth)
	}
	f.Fuzz(func(t *testing.T, seed int64, kernel, dim uint8, integral bool, nObs, nCand, basis, noise uint8, smooth bool) {
		checkPosterior(t, posteriorCase{seed, kernel, dim, integral, nObs, nCand, basis, noise, smooth})
	})
}

func TestEstimateNoiseSameBitsEveryCall(t *testing.T) {
	// 50 observations over 12 replicated inputs: with the groups summed
	// in map order the pooled variance took several bit patterns.
	rng := stats.NewRNG(3)
	xs := make([][]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = []float64{float64(10 + i%12)}
		ys[i] = rng.Normal(5, 0.5) * float64(1+i%5)
	}
	want := math.Float64bits(EstimateNoise(xs, ys, 0))
	for i := 0; i < 1000; i++ {
		if got := math.Float64bits(EstimateNoise(xs, ys, 0)); got != want {
			t.Fatalf("call %d: %x, first call %x", i, got, want)
		}
	}
}
