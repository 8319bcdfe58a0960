package core

import (
	"math"
	"testing"

	"phasetune/internal/gp"
	"phasetune/internal/linalg"
	"phasetune/internal/stats"
)

// olsResidualsOracle is the OLS pre-fit on fresh linalg matrices.
func olsResidualsOracle(xs [][]float64, ys []float64, basis []gp.BasisFunc) []float64 {
	n, p := len(xs), len(basis)
	if n == 0 || p == 0 || n < p {
		return append([]float64(nil), ys...)
	}
	f := linalg.NewMatrix(n, p)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			f.Set(i, j, basis[j](xs[i]))
		}
	}
	ftf := linalg.Mul(f.T(), f)
	for d := 0; d < p; d++ {
		ftf.Add(d, d, 1e-8)
	}
	gamma, err := linalg.SolveSPD(ftf, linalg.MulVec(f.T(), ys))
	if err != nil {
		return append([]float64(nil), ys...)
	}
	fit := linalg.MulVec(f, gamma)
	out := make([]float64, n)
	for i := range out {
		out[i] = ys[i] - fit[i]
	}
	return out
}

// One workspace reused across fits of growing and shrinking size gives
// the oracle's bits, with dummy columns that are zero at many inputs.
func TestOLSResidualsSameBits(t *testing.T) {
	rng := stats.NewRNG(9)
	var ws gpWorkspace
	for c := 0; c < 300; c++ {
		n := 1 + rng.Intn(70)
		basis := []gp.BasisFunc{gp.ConstantBasis(), gp.LinearBasis(0)}
		for d := rng.Intn(4); d > 0; d-- {
			lo := float64(rng.Intn(40))
			hi := lo + float64(1+rng.Intn(40))
			basis = append(basis, gp.IndicatorBasis(func(x []float64) bool { return x[0] > lo && x[0] <= hi }))
		}
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = []float64{float64(1 + rng.Intn(80))}
			ys[i] = rng.Normal(20, 5) + xs[i][0]/3
		}
		want := olsResidualsOracle(xs, ys, basis)
		got := ws.olsResiduals(xs, ys, basis)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("case %d: residual %d = %v, oracle %v", c, i, got[i], want[i])
			}
		}
	}
}
