package gp

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"phasetune/internal/linalg"
)

// stateSpace is a fit of the Exponential kernel on 1-D inputs, solved
// as the Ornstein–Uhlenbeck process that kernel is: on sorted inputs
// the latent values form a first-order Markov chain, so one Kalman
// filter and Rauch–Tung–Striebel smoother pass over the distinct inputs
// replaces the dense Cholesky factor of K (Hartikainen & Särkkä 2010).
// Everything here is in O(m·p) for m observations and p basis columns.
type stateSpace struct {
	alpha, theta float64
	p            int
	u            []float64 // the distinct inputs, ascending
	gap          []float64 // gap[k] = 1 - exp(-2 (u[k+1]-u[k]) / theta)
	mean         []float64 // smoothed means, p+1 per state: the residual y - F gamma, then each basis column
	vr           []float64 // smoothed variance of each state
	cross        []float64 // cross[k] = smoothed cov(s_k, s_k+1)
	gchol        []float64 // Cholesky factor of F^T K^-1 F + ridge, p x p row-major
}

// oneDim reports whether every input is a 1-D point.
func oneDim(xs [][]float64) bool {
	for _, x := range xs {
		if len(x) != 1 {
			return false
		}
	}
	return true
}

// fitStateSpace conditions an Exponential-kernel GP on 1-D observations.
// The filter runs over the observations in input order, replicates as
// repeated updates of one state, with y and the p basis columns as
// right-hand sides that share one set of gains. Its standardized
// innovations are L^-1 [y F] for the Cholesky factor L of K in that
// order (the prediction-error decomposition), so they give F^T K^-1 F,
// F^T K^-1 y, the residual quadratic form and log det K.
func (m Model) fitStateSpace(k Exponential, xs [][]float64, ys []float64, jitter float64) (*Fit, error) {
	if !(k.Alpha >= 0) || math.IsInf(k.Alpha, 0) || !(k.Theta > 0) || math.IsInf(k.Theta, 0) {
		return nil, fmt.Errorf("gp: exponential kernel needs finite alpha >= 0 and theta > 0, got %v and %v", k.Alpha, k.Theta)
	}
	n, p := len(xs), len(m.Basis)
	order := make([]int, n)
	for i, x := range xs {
		if math.IsNaN(x[0]) {
			return nil, errors.New("gp: NaN input")
		}
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(xs[a][0], xs[b][0]) })

	c := p + 1 // right-hand sides: y, then the basis columns
	buf := make([]float64, n*(2*c+6)+p*p+p)
	take := func(size int) []float64 {
		s := buf[:size:size]
		buf = buf[size:]
		return s
	}
	s := &stateSpace{alpha: k.Alpha, theta: k.Theta, p: p,
		u: take(n), gap: take(n), mean: take(n * c), vr: take(n), cross: take(n),
		gchol: take(p * p)}
	gamma := take(p)
	z, phi, pred := take(n*c), take(n), take(n)

	// Filter. P is the variance of the current state; replicates update
	// it again, and a new input first predicts it across the gap.
	noise := m.Noise + jitter
	logDet := 0.0
	d := 0
	var P float64
	for r, i := range order {
		x := xs[i][0]
		if d == 0 || x > s.u[d-1] { // else a replicate of the current state
			if d == 0 {
				P = k.Alpha
			} else {
				dx := x - s.u[d-1]
				f := math.Exp(-dx / k.Theta)
				g := -math.Expm1(-2 * dx / k.Theta)
				phi[d-1], s.gap[d-1] = f, g
				prev, next := s.mean[(d-1)*c:d*c], s.mean[d*c:(d+1)*c]
				for j, v := range prev {
					next[j] = f * v
				}
				P = f*f*P + k.Alpha*g
			}
			pred[d] = P
			s.u[d] = x
			d++
		}
		mu := s.mean[(d-1)*c : d*c]
		e := z[r*c : (r+1)*c]
		e[0] = ys[i] - mu[0]
		for j, b := range m.Basis {
			e[1+j] = b(xs[i]) - mu[1+j]
		}
		sv := P + noise
		gain := P / sv
		for j, v := range e {
			mu[j] += gain * v
		}
		P *= noise / sv
		s.vr[d-1] = P
		sq := math.Sqrt(sv)
		for j := range e {
			e[j] /= sq
		}
		logDet += math.Log(sv)
	}
	s.u, s.gap, s.vr, s.cross = s.u[:d], s.gap[:max(d-1, 0)], s.vr[:d], s.cross[:max(d-1, 0)]
	s.mean = s.mean[:d*c]

	// RTS smoother, in the form whose terms are all non-negative:
	// with a = q/P⁻ = 1 - J phi, m_k = a m_k + J m_k+1 and
	// P_k = a P_k + J² P_k+1.
	for k := d - 2; k >= 0; k-- {
		j, a := 0.0, 1.0
		if pp := pred[k+1]; pp > 0 {
			j, a = s.vr[k]*phi[k]/pp, s.alpha*s.gap[k]/pp
		}
		cur, next := s.mean[k*c:(k+1)*c], s.mean[(k+1)*c:(k+2)*c]
		for i, v := range next {
			cur[i] = a*cur[i] + j*v
		}
		s.cross[k] = j * s.vr[k+1]
		s.vr[k] = a*s.vr[k] + j*j*s.vr[k+1]
	}

	f := &Fit{model: m, ss: s, nObs: n, nuggets: jitter}
	quad := 0.0
	if p == 0 {
		for r := 0; r < n; r++ {
			quad += z[r] * z[r]
		}
	} else {
		// G = F^T K^-1 F + ridge and F^T K^-1 y from the standardized
		// innovations; the ridge is the dense path's.
		g := s.gchol
		for r := 0; r < n; r++ {
			e := z[r*c : (r+1)*c]
			for a := 0; a < p; a++ {
				ea := e[1+a]
				for b := 0; b <= a; b++ {
					g[a*p+b] += ea * e[1+b]
				}
				gamma[a] += ea * e[0]
			}
		}
		for a := 0; a < p; a++ {
			g[a*p+a] += 1e-10
		}
		gm := &linalg.Matrix{Rows: p, Cols: p, Data: g}
		if err := linalg.CholeskyInto(gm, gm); err != nil {
			return nil, fmt.Errorf("gp: trend normal equations singular: %w", err)
		}
		linalg.CholSolveInto(gm, gamma, gamma)
		f.gamma = gamma
		for r := 0; r < n; r++ {
			e := z[r*c : (r+1)*c]
			v := e[0]
			for j, gj := range gamma {
				v -= gj * e[1+j]
			}
			quad += v * v
		}
		// The smoothed residual y - F gamma, by linearity.
		for k := 0; k < d; k++ {
			row := s.mean[k*c : (k+1)*c]
			for j, gj := range gamma {
				row[0] -= gj * row[1+j]
			}
		}
	}
	f.logLik = -0.5*quad - 0.5*logDet - 0.5*float64(n)*math.Log(2*math.Pi)
	return f, nil
}

// predictInto writes the posterior at every xs[c] (1-D inputs). Given
// the states s_a and s_b at the neighbouring distinct inputs, the latent
// value at x is independent of the data (the Ornstein–Uhlenbeck bridge):
// it is w_a s_a + w_b s_b plus noise of variance v. Its posterior is
// then exact from the smoothed joint of (s_a, s_b), in O(p) for the mean
// and u = f(x) - F^T K^-1 k*, plus the p x p trend variance term.
// Past either end the bridge is one-sided. Candidates in ascending
// order are located by a merge, others by binary search.
func (s *stateSpace) predictInto(f *Fit, xs [][]float64, mean, sd []float64) {
	p, c, d := s.p, s.p+1, len(s.u)
	buf := make([]float64, 2*p+c)
	fx, z, zero := buf[:p], buf[p:2*p], buf[2*p:]
	hi := 0 // the number of distinct inputs <= x
	for ci, xv := range xs {
		x := xv[0]
		if hi > 0 && s.u[hi-1] > x {
			hi, _ = slices.BinarySearch(s.u, x)
		}
		for hi < d && s.u[hi] <= x {
			hi++
		}
		lo := hi - 1
		var wa, wb, v float64
		switch {
		case lo < 0: // left of every input
			dx := s.u[0] - x
			wb, v = math.Exp(-dx/s.theta), -s.alpha*math.Expm1(-2*dx/s.theta)
		case hi == d: // at or right of the last input
			dx := x - s.u[lo]
			wa, v = math.Exp(-dx/s.theta), -s.alpha*math.Expm1(-2*dx/s.theta)
		default: // at x = u[lo] this is exactly wa = 1, wb = 0, v = 0
			da, db := x-s.u[lo], s.u[hi]-x
			ga, gb, g := -math.Expm1(-2*da/s.theta), -math.Expm1(-2*db/s.theta), s.gap[lo]
			wa = math.Exp(-da/s.theta) * gb / g
			wb = math.Exp(-db/s.theta) * ga / g
			v = s.alpha * ga * gb / g
		}
		// A state of weight 0 is not read (the weights are non-negative).
		ma, mb := zero, zero
		if wa > 0 {
			ma = s.mean[lo*c : (lo+1)*c]
			v += wa * wa * s.vr[lo]
		}
		if wb > 0 {
			mb = s.mean[hi*c : (hi+1)*c]
			v += wb * wb * s.vr[hi]
			if wa > 0 {
				v += 2 * wa * wb * s.cross[lo]
			}
		}
		mu := wa*ma[0] + wb*mb[0]
		if p > 0 {
			// u = f(x) - F^T K^-1 k*, and u^T G^-1 u = |L_G^-1 u|².
			g := s.gchol
			for a, b := range f.model.Basis {
				fx[a] = b(xv)
				t := fx[a] - (wa*ma[1+a] + wb*mb[1+a])
				for j, l := range g[a*p : a*p+a] {
					t -= l * z[j]
				}
				z[a] = t / g[a*p+a]
				v += z[a] * z[a]
			}
			for j, gj := range f.gamma {
				mu += fx[j] * gj
			}
		}
		mean[ci] = mu
		if v < 0 {
			v = 0
		}
		sd[ci] = math.Sqrt(v)
	}
}
