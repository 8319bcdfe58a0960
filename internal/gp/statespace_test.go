package gp

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"phasetune/internal/linalg"
	"phasetune/internal/stats"
)

// norm1 returns the maximum absolute column sum of a square matrix.
func norm1(a *linalg.Matrix) float64 {
	worst := 0.0
	for j := 0; j < a.Cols; j++ {
		s := 0.0
		for i := 0; i < a.Rows; i++ {
			s += math.Abs(a.At(i, j))
		}
		worst = math.Max(worst, s)
	}
	return worst
}

// ssBound is the relative error the state-space fit may show against the
// dense one: n·ssSlack·ε times the 1-norm condition numbers of K and of
// G = F^T K^-1 F + ridge, both from the dense fit. The two solvers round
// differently, and a rounding-sized perturbation of K or G is amplified
// by at most these condition numbers; a ridge-dominated, rank-deficient
// trend makes ‖G^-1‖ and so the bound large.
func ssBound(dense *Fit) float64 {
	n := dense.nObs
	kinv := linalg.CholSolveMatrix(dense.chol, linalg.Identity(n))
	k := linalg.Mul(dense.chol, dense.chol.T())
	bound := 0x1p-52 * norm1(k) * norm1(kinv)
	if dense.fginv != nil {
		g, err := linalg.Inverse(dense.fginv)
		if err != nil {
			return math.Inf(1)
		}
		bound *= 1 + norm1(g)*norm1(dense.fginv)
	}
	return ssSlack * float64(n) * bound
}

// ssSlack covers the rounding of the p x p trend algebra, which the
// factor n does not count. Over 20000 random cases the largest error was
// 4.5 bounds at ssSlack = 1, in rank-deficient dummy trends on one
// observation.
const ssSlack = 64

// checkStateSpace requires the state-space fit to agree with the dense
// fit and its per-point oracle within ssBound on the trend coefficients,
// the log-likelihood and the mean and variance at every candidate, each
// relative to its natural scale, with every output finite. The
// candidates are predicted in their random order (binary search) and
// sorted (merge), with the same bits. It returns the largest error in
// units of the bound.
func checkStateSpace(t *testing.T, pc posteriorCase) (worst float64) {
	t.Helper()
	m, xs, ys, cands := pc.build()
	dense, derr := fitDense(m, xs, ys)
	fit, err := m.FitModel(xs, ys)
	if err == nil && fit.ss == nil {
		t.Fatalf("%+v: FitModel did not take the state-space path", pc)
	}
	if derr != nil {
		return 0 // no dense fit to hold the state-space one to
	}
	if err != nil {
		// Only where the bound is void, as for a numerically singular
		// trend system, may the state-space fit fail alone.
		if ssBound(dense) < 1 {
			t.Fatalf("%+v: the state-space fit failed where the dense one did not: %v", pc, err)
		}
		return 0
	}
	bound := ssBound(dense)
	ratio := func(what string, got, want, scale float64) {
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("%+v: %s = %v, dense %v", pc, what, got, want)
		}
		if d := math.Abs(got - want); d > 0 {
			r := d / (bound * scale)
			if !(r <= 1) {
				t.Fatalf("%+v: %s = %v, dense %v: error %.3g bounds (bound %.3g, scale %.3g)",
					pc, what, got, want, r, bound, scale)
			}
			worst = math.Max(worst, r)
		}
	}
	maxY := 0.0
	for _, y := range ys {
		maxY = math.Max(maxY, math.Abs(y))
	}
	// gamma = H y with H = G^-1 F^T K^-1; |H| |y| is the scale of its
	// rounding error.
	for j, g := range fit.gamma {
		scale := 0.0
		for i, y := range ys {
			h := 0.0
			for a := range fit.gamma {
				h += dense.fginv.At(j, a) * dense.kinvFT[a*len(ys)+i]
			}
			scale += math.Abs(h * y)
		}
		ratio("gamma", g, dense.gamma[j], scale)
	}
	logDet := linalg.LogDetFromChol(dense.chol)
	ratio("log-likelihood", fit.LogLikelihood(), dense.LogLikelihood(),
		math.Abs(dense.LogLikelihood())+math.Abs(logDet)+float64(len(xs)))

	mean := make([]float64, len(cands))
	sd := make([]float64, len(cands))
	fit.PredictInto(cands, mean, sd)
	alpha := m.Kernel.Variance()
	for c, x := range cands {
		om, osd := predictOracle(dense, x)
		trend := 0.0
		for j, b := range m.Basis {
			trend += math.Abs(b(x) * dense.gamma[j])
		}
		ratio("mean", mean[c], om, maxY+trend)
		ratio("variance", sd[c]*sd[c], osd*osd, alpha+osd*osd)
	}

	perm := make([]int, len(cands))
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int { return cmp.Compare(cands[a][0], cands[b][0]) })
	sorted := make([][]float64, len(cands))
	for i, c := range perm {
		sorted[i] = cands[c]
	}
	smean := make([]float64, len(cands))
	ssd := make([]float64, len(cands))
	fit.PredictInto(sorted, smean, ssd)
	for i, c := range perm {
		if !sameBits(smean[i], mean[c]) || !sameBits(ssd[i], sd[c]) {
			t.Fatalf("%+v: candidate %v: sorted (%v, %v), unsorted (%v, %v)",
				pc, cands[c], smean[i], ssd[i], mean[c], sd[c])
		}
	}
	return worst
}

// stateSpaceSeeds are Exponential 1-D cases: the GP-discontinuous
// shape, replicates, one observation, noise-free fits, non-integer
// inputs, candidates outside the observed range, theta x 50 and
// rank-deficient dummy trends.
var stateSpaceSeeds = []posteriorCase{
	{seed: 1, integral: true, nObs: 49, nCand: 118, basis: 3 | 2<<2, noise: 4},    // GP-discontinuous shape
	{seed: 2, integral: true, nObs: 63, nCand: 3, basis: 3 | 3<<2 | 16, noise: 2}, // replicates, collinear dummies
	{seed: 3, integral: true, nObs: 0, nCand: 5, basis: 1, noise: 4},              // one observation
	{seed: 4, integral: true, nObs: 20, nCand: 6, basis: 0, noise: 0},             // no basis, noise-free
	{seed: 6, integral: false, nObs: 25, nCand: 9, basis: 3 | 1<<2, noise: 1},     // non-integer
	{seed: 10, integral: true, nObs: 63, nCand: 0, basis: 3, noise: 0},            // one candidate, noise-free replicates
	{seed: 14, integral: false, nObs: 2, nCand: 80, basis: 3, noise: 2},           // three observations, candidates beyond both ends
	{seed: 15, integral: true, nObs: 40, nCand: 129, basis: 3 | 2<<2, noise: 0, smooth: true},
	{seed: 16, integral: false, nObs: 12, nCand: 50, basis: 3 | 2<<2 | 16, noise: 3, smooth: true},
	{seed: 4896, integral: false, nObs: 0, nCand: 101, basis: 27, noise: 5}, // ridge-dominated: 5 columns, 1 observation
}

func TestStateSpaceMatchesDense(t *testing.T) {
	for _, pc := range stateSpaceSeeds {
		checkStateSpace(t, pc)
	}
	rng := stats.NewRNG(5)
	worst := 0.0
	for i := 0; i < 500; i++ {
		pc := randomCase(rng, int64(i))
		pc.kernel, pc.dim = 0, 0
		worst = math.Max(worst, checkStateSpace(t, pc))
	}
	t.Logf("largest error: %.3g bounds", worst)
}

// The seeds must keep covering what the accuracy criterion names.
func TestStateSpaceSeedsCover(t *testing.T) {
	var noiseFree, replicates, nonInteger, left, right, smooth bool
	for _, pc := range stateSpaceSeeds {
		_, xs, _, cands := pc.build()
		lo, hi := math.Inf(1), math.Inf(-1)
		seen := map[float64]bool{}
		for _, x := range xs {
			lo, hi = math.Min(lo, x[0]), math.Max(hi, x[0])
			replicates = replicates || seen[x[0]]
			seen[x[0]] = true
		}
		for _, c := range cands {
			left = left || c[0] < lo
			right = right || c[0] > hi
		}
		noiseFree = noiseFree || pc.noise == 0
		nonInteger = nonInteger || !pc.integral
		smooth = smooth || pc.smooth
	}
	if !noiseFree || !replicates || !nonInteger || !left || !right || !smooth {
		t.Fatalf("seeds cover noise-free %v, replicates %v, non-integer %v, left %v, right %v, theta x 50 %v",
			noiseFree, replicates, nonInteger, left, right, smooth)
	}
}

// FitModel takes the state-space path for an Exponential kernel on 1-D
// inputs and the dense one otherwise.
func TestFitModelChoosesSolver(t *testing.T) {
	for _, c := range []struct {
		k    Kernel
		xs   [][]float64
		want bool
	}{
		{Exponential{1, 2}, X1(1, 2, 2.5), true},
		{Exponential{1, 2}, [][]float64{{1, 0}, {2, 1}}, false},
		{Matern32{1, 2}, X1(1, 2, 2.5), false},
		{SquaredExponential{1, 2}, X1(1, 2, 2.5), false},
	} {
		fit, err := Model{Kernel: c.k, Noise: 0.1}.FitModel(c.xs, make([]float64, len(c.xs)))
		if err != nil {
			t.Fatal(err)
		}
		if got := fit.ss != nil; got != c.want {
			t.Errorf("%T on %d-D inputs: state space %v, want %v", c.k, len(c.xs[0]), got, c.want)
		}
	}
}

func FuzzStateSpacePosterior(f *testing.F) {
	for _, pc := range stateSpaceSeeds {
		f.Add(pc.seed, pc.integral, pc.nObs, pc.nCand, pc.basis, pc.noise, pc.smooth)
	}
	f.Fuzz(func(t *testing.T, seed int64, integral bool, nObs, nCand, basis, noise uint8, smooth bool) {
		checkStateSpace(t, posteriorCase{seed: seed, integral: integral, nObs: nObs,
			nCand: nCand, basis: basis, noise: noise, smooth: smooth})
	})
}
