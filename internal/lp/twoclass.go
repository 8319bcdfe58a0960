package lp

import (
	"fmt"
	"math"
	"slices"
)

// TwoClassMakespan returns the optimal makespan of the task-allocation
// LP of SolveAllocation when there are exactly two classes of divisible
// work: G units that node i processes at rate g[i] and F units that it
// processes at rate f[i]. A rate of 0 marks a node that cannot run the
// class (SolveAllocation's +Inf cost, with cost = 1/rate). It is the
// paper's LP(n) with G the generation work on every node and F the
// factorization work on the n fastest nodes, and agrees with
// SolveAllocation to rounding (see FuzzTwoClassMakespan).
//
// Derivation. With time a_i and b_i spent by node i on each class, the
// LP is
//
//	minimize M  s.t.  Σ a_i g_i = G,  Σ b_i f_i = F,  a_i + b_i <= M,  a, b >= 0.
//
// Its dual is
//
//	maximize G·u + F·v  s.t.  Σ_i max(u·g_i, v·f_i) <= 1,  u, v >= 0,
//
// so every direction (u, v) >= 0 gives the lower bound
// T(u, v) = (G·u + F·v) / Σ_i max(u·g_i, v·f_i), and by strong duality
// the makespan is the largest of them. Along t = v/u the denominator is
// piecewise linear with breakpoints t = g_k/f_k, and a ratio of linear
// functions is monotone on each piece, so the maximum sits at a
// breakpoint or at an end of the ray. At the breakpoint of node k,
// (u, v) = (f_k, g_k): with the nodes ordered by comparative advantage
// f_i/g_i ascending, the nodes before k have max = f_k·g_i and those
// after it g_k·f_i (nodes tied with k give the same value on either
// side), hence
//
//	T_k = (F·g_k + G·f_k) / (f_k·g_k + D·g_k + C·f_k),
//
// with C the sum of g below k and D the sum of f above k. The two ends
// of the ray, (1, 0) and (0, 1), are the single-class bounds G/Σg and
// F/Σf; a split matches them whenever both classes have capable nodes,
// and they are the answer when one class has none (and so no work). So
//
//	makespan = max(G/Σg, F/Σf, max_k T_k).
//
// Each candidate is the value of a dual-feasible point, so the maximum
// is reached without any tolerance test. The primal counterpart is the
// greedy schedule: nodes below the optimal split only generate, nodes
// above it only factorize, and the split node shares its time.
//
// Errors follow SolveAllocation: no nodes, or a class with positive work
// and no node of positive rate, is an error. Negative, NaN or infinite
// inputs are rejected too. A node with both rates 0 takes no part, and
// a split whose denominator is 0 (possible only when its numerator is 0
// too) is skipped rather than producing NaN.
func TwoClassMakespan(G, F float64, g, f []float64) (float64, error) {
	var s TwoClassSolver
	return s.Makespan(G, F, g, f)
}

// TwoClassSolver computes TwoClassMakespan repeatedly while reusing its
// scratch slices: once they have grown to the node count, Makespan does
// not allocate. The zero value is ready to use; a solver is not safe for
// concurrent use.
type TwoClassSolver struct {
	order []int     // usable nodes by ascending f/g
	below []float64 // below[pos]: Σ g over order[:pos]
}

// Makespan is TwoClassMakespan with s's scratch.
func (s *TwoClassSolver) Makespan(G, F float64, g, f []float64) (float64, error) {
	if len(g) != len(f) {
		return 0, fmt.Errorf("lp: %d class-1 rates, %d class-2 rates", len(g), len(f))
	}
	if len(g) == 0 {
		return 0, fmt.Errorf("lp: allocation over 0 nodes")
	}
	if !finiteNonNeg(G) || !finiteNonNeg(F) {
		return 0, fmt.Errorf("lp: work (%v, %v) must be finite and non-negative", G, F)
	}
	order := slices.Grow(s.order[:0], len(g))
	var sumG, sumF float64
	for i := range g {
		if !finiteNonNeg(g[i]) || !finiteNonNeg(f[i]) {
			return 0, fmt.Errorf("lp: node %d rates (%v, %v) must be finite and non-negative", i, g[i], f[i])
		}
		if g[i] > 0 || f[i] > 0 {
			order = append(order, i)
		}
		sumG += g[i]
		sumF += f[i]
	}
	s.order = order
	if G > 0 && !(sumG > 0) {
		return 0, fmt.Errorf("lp: class 1 cannot run on any node")
	}
	if F > 0 && !(sumF > 0) {
		return 0, fmt.Errorf("lp: class 2 cannot run on any node")
	}

	// Ascending f/g by cross-multiplication, so g = 0 (fact-only) sorts
	// last and f = 0 (gen-only) first without dividing; the stable sort
	// breaks ties by index.
	slices.SortStableFunc(order, func(i, j int) int {
		a, b := f[i]*g[j], f[j]*g[i]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
	below := slices.Grow(s.below[:0], len(order))[:len(order)]
	s.below = below
	var c float64
	for pos, k := range order {
		below[pos] = c
		c += g[k]
	}

	var best float64
	if sumG > 0 {
		best = G / sumG
	}
	if sumF > 0 {
		best = max(best, F/sumF)
	}
	var d float64 // Σ f above the split, summed from the top
	for pos := len(order) - 1; pos >= 0; pos-- {
		k := order[pos]
		if den := f[k]*g[k] + d*g[k] + below[pos]*f[k]; den > 0 {
			best = max(best, (F*g[k]+G*f[k])/den)
		}
		d += f[k]
	}
	return best, nil
}

func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }
