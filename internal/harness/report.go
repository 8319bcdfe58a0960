package harness

import (
	"fmt"
	"math"
	"strings"

	"phasetune/internal/core"
	"phasetune/internal/gp"
	"phasetune/internal/platform"
	"phasetune/internal/stats"
)

// RenderTableI prints the paper's Table I (strategy expectations).
func RenderTableI() string {
	var sb strings.Builder
	sb.WriteString("Table I — summary of exploration strategies and expected behavior\n")
	fmt.Fprintf(&sb, "%-18s %-18s %-24s %-5s\n",
		"Algorithm", "Resilient to noise", "Optimal", "Fast")
	mark := func(b bool) string {
		if b {
			return "x"
		}
		return ""
	}
	for _, r := range core.TableI() {
		opt := mark(r.Optimal)
		if r.OptimalNote != "" {
			opt = "x (" + r.OptimalNote + ")"
		}
		fmt.Fprintf(&sb, "%-18s %-18s %-24s %-5s\n",
			r.Algorithm, mark(r.ResilientToNoise), opt, mark(r.Fast))
	}
	return sb.String()
}

// RenderTableII prints the paper's Table II (node classes) together with
// the calibrated speeds this reproduction assigns them.
func RenderTableII() string {
	var sb strings.Builder
	sb.WriteString("Table II — computational nodes used in the performance evaluation\n")
	fmt.Fprintf(&sb, "%-5s %-5s %-20s %-22s %-14s %10s %10s\n",
		"Cat", "Site", "Machine", "CPU", "GPU", "CPU GF/s", "Fact GF/s")
	for _, c := range platform.TableII() {
		gpu := c.GPU
		if gpu == "" {
			gpu = "-"
		}
		fmt.Fprintf(&sb, "%-5s %-5s %-20s %-22s %-14s %10.0f %10.0f\n",
			c.Category, c.Site, c.Machine, c.CPU, gpu, c.CPUSpeed, c.FactSpeed())
	}
	return sb.String()
}

// Fig3Point is one grid sample of the GP-on-cos demonstration.
type Fig3Point struct {
	X, Truth, Mean, Lo, Hi float64
}

// Fig3Demo reproduces Figure 3: a GP fitted to eight noisy measurements
// of cos over [0, 4pi]; it returns the predictive grid and the measured
// points. The 95% interval should contain the true function.
func Fig3Demo(seed int64) (grid []Fig3Point, xs []float64, ys []float64, err error) {
	rng := stats.NewRNG(seed)
	for i := 0; i < 8; i++ {
		x := rng.Float64() * 4 * math.Pi
		xs = append(xs, x)
		ys = append(ys, math.Cos(x)+rng.Normal(0, 0.05))
	}
	fit, err := gp.Model{
		Kernel: gp.SquaredExponential{Alpha: 1, Theta: 1.5},
		Noise:  0.0025,
	}.FitModel(gp.X1(xs...), ys)
	if err != nil {
		return nil, nil, nil, err
	}
	var at [][]float64
	for x := 0.0; x <= 4*math.Pi+1e-9; x += 4 * math.Pi / 100 {
		at = append(at, []float64{x})
	}
	mean := make([]float64, len(at))
	sd := make([]float64, len(at))
	fit.PredictInto(at, mean, sd)
	for i, x := range at {
		m := mean[i]
		grid = append(grid, Fig3Point{
			X: x[0], Truth: math.Cos(x[0]), Mean: m,
			Lo: m - 1.96*sd[i], Hi: m + 1.96*sd[i],
		})
	}
	return grid, xs, ys, nil
}

// CoverageOfFig3 returns the fraction of grid points whose 95% band
// contains the true cos value.
func CoverageOfFig3(grid []Fig3Point) float64 {
	in := 0
	for _, p := range grid {
		if p.Truth >= p.Lo-1e-9 && p.Truth <= p.Hi+1e-9 {
			in++
		}
	}
	if len(grid) == 0 {
		return 0
	}
	return float64(in) / float64(len(grid))
}
