package harness

import (
	"fmt"
	"math"

	"phasetune/internal/core"
	"phasetune/internal/platform"
	"phasetune/internal/stats"
)

// NoiseSD is the observation noise the paper adds to deterministic
// simulation results (Section V: normal with a 0.5 s standard deviation,
// estimated from the real experiments).
const NoiseSD = 0.5

// Curve is the iteration-duration profile of one scenario: the data
// behind Figures 2 and 5.
type Curve struct {
	Scenario platform.Scenario
	Tiles    int       // tile count actually simulated
	Actions  []int     // node counts, MinNodes..N
	Sim      []float64 // deterministic simulated makespans
	LP       []float64 // LP lower bound per action
	lpFunc   func(n int) float64
}

// CurveOptions configures curve computation.
type CurveOptions struct {
	Sim SimOptions
	// Workers bounds the number of parallel simulations (0 = GOMAXPROCS).
	Workers int
}

// ComputeCurve simulates every feasible action of the scenario in
// parallel and attaches the LP bound.
func ComputeCurve(sc platform.Scenario, opts CurveOptions) (*Curve, error) {
	minN := sc.MinNodes
	if minN < 1 {
		minN = 1
	}
	n := sc.Platform.N()
	actions := make([]int, 0, n-minN+1)
	for a := minN; a <= n; a++ {
		actions = append(actions, a)
	}
	c := &Curve{
		Scenario: sc,
		Tiles:    opts.Sim.tiles(sc),
		Actions:  actions,
		Sim:      make([]float64, len(actions)),
		LP:       make([]float64, len(actions)),
	}
	lpf, err := LPBound(sc, opts.Sim)
	if err != nil {
		return nil, err
	}
	c.lpFunc = lpf
	ev := NewEvaluator(sc, opts.Sim).Batch()
	var errs errCollector
	parallelFor(len(actions), opts.Workers, func(i int) {
		mk, err := ev.Evaluate(actions[i])
		if err != nil {
			errs.record(err)
			return
		}
		c.Sim[i] = mk
		c.LP[i] = lpf(actions[i])
	})
	if err := errs.first(); err != nil {
		return nil, err
	}
	return c, nil
}

// LPAt returns the LP bound for an action.
func (c *Curve) LPAt(n int) float64 { return c.lpFunc(n) }

// SimAt returns the deterministic makespan for an action, or NaN when the
// action is not part of the curve.
func (c *Curve) SimAt(n int) float64 {
	i := n - c.Actions[0]
	if i < 0 || i >= len(c.Sim) {
		return math.NaN()
	}
	return c.Sim[i]
}

// Best returns the action with the smallest deterministic makespan.
func (c *Curve) Best() (action int, makespan float64) {
	i := stats.ArgMin(c.Sim)
	return c.Actions[i], c.Sim[i]
}

// AllNodes returns the makespan when using every node (the paper's
// baseline configuration).
func (c *Curve) AllNodes() float64 { return c.Sim[len(c.Sim)-1] }

// Pool builds the Section V resampling pool: reps noisy observations per
// action around the deterministic simulation value.
func (c *Curve) Pool(noiseSD float64, reps int, seed int64) *stats.Pool {
	rng := stats.NewRNG(seed)
	pool := stats.NewPool()
	for i, a := range c.Actions {
		for r := 0; r < reps; r++ {
			d := c.Sim[i] + rng.Normal(0, noiseSD)
			if d < 0.01 {
				d = 0.01
			}
			pool.Add(a, d)
		}
	}
	return pool
}

// Context builds the tuning context strategies receive for this curve.
func (c *Curve) Context() core.Context {
	return core.Context{
		N:          c.Scenario.Platform.N(),
		Min:        c.Actions[0],
		GroupSizes: c.Scenario.Platform.GroupSizes(),
		LP:         c.lpFunc,
	}
}

// Render prints the curve as the rows of a Figure 2/5 panel.
func (c *Curve) Render() string {
	out := fmt.Sprintf("(%s) %s [tiles=%d]\n", c.Scenario.Key, c.Scenario.Name, c.Tiles)
	out += fmt.Sprintf("%6s %12s %12s\n", "nodes", "sim[s]", "LP[s]")
	for i, a := range c.Actions {
		out += fmt.Sprintf("%6d %12.3f %12.3f\n", a, c.Sim[i], c.LP[i])
	}
	best, bv := c.Best()
	out += fmt.Sprintf("best: %d nodes (%.3f s); all nodes: %.3f s\n",
		best, bv, c.AllNodes())
	return out
}
