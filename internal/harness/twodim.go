package harness

import (
	"fmt"
	"math"
	"strings"

	"phasetune/internal/platform"
)

// Grid2D is the data behind Figure 8: iteration makespan as a function of
// both the generation and the factorization node counts.
type Grid2D struct {
	Scenario    platform.Scenario
	GenActions  []int
	FactActions []int
	// Makespan[g][f] is the deterministic makespan with GenActions[g]
	// generation nodes and FactActions[f] factorization nodes.
	Makespan [][]float64
}

// Grid2DOptions configures the sweep.
type Grid2DOptions struct {
	Sim SimOptions
	// Stride samples every k-th node count in both dimensions (>=1).
	Stride int
	// MinGen / MinFact bound the sweep from below (default: the
	// scenario's MinNodes).
	MinGen, MinFact int
	Workers         int
}

// ComputeGrid2D sweeps both dimensions for a scenario.
func ComputeGrid2D(sc platform.Scenario, opts Grid2DOptions) (*Grid2D, error) {
	stride := opts.Stride
	if stride < 1 {
		stride = 1
	}
	minG := opts.MinGen
	if minG < 1 {
		minG = sc.MinNodes
	}
	minF := opts.MinFact
	if minF < 1 {
		minF = sc.MinNodes
	}
	n := sc.Platform.N()
	seq := func(min int) []int {
		var out []int
		for a := min; a <= n; a += stride {
			out = append(out, a)
		}
		if out[len(out)-1] != n {
			out = append(out, n)
		}
		return out
	}
	g := &Grid2D{Scenario: sc, GenActions: seq(minG), FactActions: seq(minF)}
	g.Makespan = make([][]float64, len(g.GenActions))
	for i := range g.Makespan {
		g.Makespan[i] = make([]float64, len(g.FactActions))
	}
	type cell struct{ gi, fi int }
	var cells []cell
	for gi := range g.GenActions {
		for fi := range g.FactActions {
			cells = append(cells, cell{gi, fi})
		}
	}
	// One batch per generation node count: each compiles its iteration
	// template once for the whole row.
	evs := make([]*Batch, len(g.GenActions))
	for gi, gen := range g.GenActions {
		so := opts.Sim
		so.GenNodes = gen
		evs[gi] = NewEvaluator(sc, so).Batch()
	}
	var errs errCollector
	parallelFor(len(cells), opts.Workers, func(i int) {
		c := cells[i]
		mk, err := evs[c.gi].Evaluate(g.FactActions[c.fi])
		if err != nil {
			errs.record(err)
			return
		}
		g.Makespan[c.gi][c.fi] = mk
	})
	if err := errs.first(); err != nil {
		return nil, err
	}
	return g, nil
}

// Best returns the joint optimum of the grid.
func (g *Grid2D) Best() (gen, fact int, makespan float64) {
	makespan = math.Inf(1)
	for gi, row := range g.Makespan {
		for fi, v := range row {
			if v < makespan {
				gen, fact, makespan = g.GenActions[gi], g.FactActions[fi], v
			}
		}
	}
	return gen, fact, makespan
}

// AllNodes returns the makespan of the default configuration (all nodes
// for both phases).
func (g *Grid2D) AllNodes() float64 {
	return g.Makespan[len(g.GenActions)-1][len(g.FactActions)-1]
}

// Render prints the grid as a text heatmap of makespans.
func (g *Grid2D) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "(%s) %s — makespan [s] by generation x factorization nodes\n",
		g.Scenario.Key, g.Scenario.Name)
	fmt.Fprintf(&sb, "%8s", "gen\\fact")
	for _, f := range g.FactActions {
		fmt.Fprintf(&sb, "%8d", f)
	}
	sb.WriteByte('\n')
	for gi, row := range g.Makespan {
		fmt.Fprintf(&sb, "%8d", g.GenActions[gi])
		for _, v := range row {
			fmt.Fprintf(&sb, "%8.2f", v)
		}
		sb.WriteByte('\n')
	}
	gen, fact, best := g.Best()
	fmt.Fprintf(&sb, "best: gen=%d fact=%d (%.2f s); all-nodes %.2f s\n",
		gen, fact, best, g.AllNodes())
	return sb.String()
}
