package gp

import "math"

// lanes is the number of candidates one pass of the blocked posterior
// solves together, each in its own register accumulator.
const lanes = 4

// lane holds one value per candidate of a block.
type lane = [lanes]float64

// maxExpTable caps the kernel table at 4096 distances (32 KB).
const maxExpTable = 1 << 12

// expTable evaluates an Exponential kernel at integer distances from a
// table of exp(-d/theta). With integer 1-D inputs Distance is exactly
// |d|, so alpha*e[d] is the bit pattern Exponential.Cov returns.
type expTable struct {
	k Exponential
	e []float64 // e[d] = exp(-d/theta)
}

// newExpTable returns the kernel table of a fit and its inputs as
// integers, or nil when the kernel is not Exponential or an input is
// not an integer-valued 1-D point. The table covers the distances
// between the inputs.
func newExpTable(k Kernel, xs [][]float64) (*expTable, []int) {
	e, ok := k.(Exponential)
	if !ok {
		return nil, nil
	}
	xi := make([]int, len(xs))
	lo, hi := 0, 0
	for i, x := range xs {
		v, ok := intInput(x)
		if !ok {
			return nil, nil
		}
		xi[i] = v
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	t := &expTable{k: e, e: make([]float64, min(hi-lo+1, maxExpTable))}
	for d := range t.e {
		t.e[d] = math.Exp(-float64(d) / e.Theta)
	}
	return t, xi
}

// intInput returns a 1-D input as an integer when it is one of
// magnitude below 2^24, where differences and their squares are exact.
func intInput(x []float64) (int, bool) {
	if len(x) != 1 {
		return 0, false
	}
	v, ok := exactInt(x[0], 1<<24)
	return int(v), ok
}

// cov returns the kernel at the integer distance |d|.
func (t *expTable) cov(d int) float64 {
	if d < 0 {
		d = -d
	}
	if d < len(t.e) {
		return t.k.Alpha * t.e[d]
	}
	return t.k.Cov(float64(d))
}

// Predict returns the kriging mean and standard deviation of the latent
// function f at x (noise-free prediction): PredictInto for one point.
func (f *Fit) Predict(x []float64) (mean, sd float64) {
	var m, s [1]float64
	f.PredictInto([][]float64{x}, m[:], s[:])
	return m[0], s[0]
}

// PredictInto writes the kriging mean and standard deviation of the
// latent function f (noise-free prediction) at every xs[c] into mean[c]
// and sd[c]. Candidates are solved in blocks of four: one forward and
// one back substitution per block, with each candidate's arithmetic in
// the order a solve of that candidate alone would use, so every output
// is the same bit pattern whatever the block it falls in.
func (f *Fit) PredictInto(xs [][]float64, mean, sd []float64) {
	if len(mean) < len(xs) || len(sd) < len(xs) {
		panic("gp: PredictInto output shorter than its inputs")
	}
	n, p := f.nObs, len(f.model.Basis)
	buf := make([]lane, 2*n+3*p)
	ks, w := buf[:n], buf[n:2*n]
	fx, u, fu := buf[2*n:2*n+p], buf[2*n+p:2*n+2*p], buf[2*n+2*p:]
	var blk [lanes][]float64
	for c0 := 0; c0 < len(xs); c0 += lanes {
		// A short last block repeats its last candidate.
		for c := range blk {
			blk[c] = xs[min(c0+c, len(xs)-1)]
		}
		f.crossCov(&blk, ks)
		m, v := f.solveBlock(ks, w)
		if p > 0 {
			f.trendBlock(&blk, ks, fx, u, fu, &m, &v)
		}
		for c := 0; c < lanes && c0+c < len(xs); c++ {
			mean[c0+c] = m[c]
			if v[c] < 0 {
				v[c] = 0
			}
			sd[c0+c] = math.Sqrt(v[c])
		}
	}
}

// crossCov fills ks[i][c] with the covariance between candidate blk[c]
// and observation i.
func (f *Fit) crossCov(blk *[lanes][]float64, ks []lane) {
	for c, x := range blk {
		xc, ok := 0, false
		if f.tab != nil {
			xc, ok = intInput(x)
		}
		if !ok {
			for i := range ks {
				ks[i][c] = f.model.Kernel.Cov(Distance(x, f.x[i]))
			}
			continue
		}
		for i, xi := range f.xi[:len(ks)] {
			ks[i][c] = f.tab.cov(xc - xi)
		}
	}
}

// solveBlock returns the zero-trend mean k*^T K^-1 r and the variance
// alpha - k*^T K^-1 k* of each candidate of a block, solving
// L L^T w = k* by forward then back substitution in dot form. w is
// scratch.
func (f *Fit) solveBlock(ks, w []lane) (m, v lane) {
	n := f.nObs
	l, lt := f.chol.Data, f.cholT
	for i, r := range f.resid {
		k := &ks[i]
		m[0] += k[0] * r
		m[1] += k[1] * r
		m[2] += k[2] * r
		m[3] += k[3] * r
	}
	for i := 0; i < n; i++ {
		s0, s1, s2, s3 := ks[i][0], ks[i][1], ks[i][2], ks[i][3]
		row := l[i*n : i*n+i]
		wr := w[:len(row)]
		for j, a := range row {
			x := &wr[j]
			s0 -= a * x[0]
			s1 -= a * x[1]
			s2 -= a * x[2]
			s3 -= a * x[3]
		}
		d := l[i*n+i]
		w[i] = lane{s0 / d, s1 / d, s2 / d, s3 / d}
	}
	for i := n - 1; i >= 0; i-- {
		s0, s1, s2, s3 := w[i][0], w[i][1], w[i][2], w[i][3]
		row := lt[i*n+i+1 : (i+1)*n]
		wr := w[i+1 : i+1+len(row)]
		for j, a := range row {
			x := &wr[j]
			s0 -= a * x[0]
			s1 -= a * x[1]
			s2 -= a * x[2]
			s3 -= a * x[3]
		}
		d := l[i*n+i]
		w[i] = lane{s0 / d, s1 / d, s2 / d, s3 / d}
	}
	var q lane
	for i := range ks {
		k, x := &ks[i], &w[i]
		q[0] += k[0] * x[0]
		q[1] += k[1] * x[1]
		q[2] += k[2] * x[2]
		q[3] += k[3] * x[3]
	}
	alpha := f.model.Kernel.Variance()
	for c := range v {
		v[c] = alpha - q[c]
	}
	return m, v
}

// trendBlock adds the universal-kriging trend to a block: f(x)^T gamma
// to the mean and u^T (F^T K^-1 F)^-1 u, with u = f(x) - F^T K^-1 k*, to
// the variance. fx, u and fu are scratch.
func (f *Fit) trendBlock(blk *[lanes][]float64, ks, fx, u, fu []lane, m, v *lane) {
	n, p := f.nObs, len(f.model.Basis)
	for j, b := range f.model.Basis {
		for c, x := range blk {
			fx[j][c] = b(x)
		}
	}
	var t lane
	for j, g := range f.gamma {
		for c := range t {
			t[c] += fx[j][c] * g
		}
	}
	for c := range t {
		m[c] += t[c]
	}
	for j := range u {
		s0, s1, s2, s3 := fx[j][0], fx[j][1], fx[j][2], fx[j][3]
		for i, a := range f.kinvFT[j*n : (j+1)*n] {
			k := &ks[i]
			s0 -= a * k[0]
			s1 -= a * k[1]
			s2 -= a * k[2]
			s3 -= a * k[3]
		}
		u[j] = lane{s0, s1, s2, s3}
	}
	g := f.fginv.Data
	for a := range fu {
		var s lane
		for b, gab := range g[a*p : (a+1)*p] {
			for c := range s {
				s[c] += gab * u[b][c]
			}
		}
		fu[a] = s
	}
	var q lane
	for a := range u {
		for c := range q {
			q[c] += u[a][c] * fu[a][c]
		}
	}
	for c := range q {
		v[c] += q[c]
	}
}
