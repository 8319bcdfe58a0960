package harness

import (
	"math"
	"strings"
	"testing"

	"phasetune/internal/core"
	"phasetune/internal/geostat"
	"phasetune/internal/lp"
	"phasetune/internal/platform"
)

// testOpts shrinks the workload so harness tests stay fast; shapes at
// reduced tile counts remain qualitatively intact.
func testOpts() CurveOptions {
	return CurveOptions{Sim: SimOptions{Tiles: 24}}
}

func testCurve(t *testing.T, key string) *Curve {
	t.Helper()
	sc, ok := platform.ScenarioByKey(key)
	if !ok {
		t.Fatalf("scenario %q missing", key)
	}
	c, err := ComputeCurve(sc, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSimulateIterationValidation(t *testing.T) {
	sc, _ := platform.ScenarioByKey("b")
	if _, err := SimulateIteration(sc, 0, SimOptions{Tiles: 8}); err == nil {
		t.Fatal("nFact=0 should error")
	}
	if _, err := SimulateIteration(sc, 99, SimOptions{Tiles: 8}); err == nil {
		t.Fatal("nFact>N should error")
	}
}

func TestSimulateIterationDeterministic(t *testing.T) {
	sc, _ := platform.ScenarioByKey("b")
	a, err := SimulateIteration(sc, 5, SimOptions{Tiles: 16})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateIteration(sc, 5, SimOptions{Tiles: 16})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("simulation not deterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("makespan = %v", a)
	}
}

func TestSimulateIterationExactVsFast(t *testing.T) {
	// The exact fluid model and the frozen-rate approximation should
	// agree within a modest factor.
	sc, _ := platform.ScenarioByKey("b")
	fast, err := SimulateIteration(sc, 6, SimOptions{Tiles: 16})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := SimulateIteration(sc, 6, SimOptions{Tiles: 16, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	ratio := fast / exact
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("fast %v vs exact %v: ratio %v", fast, exact, ratio)
	}
}

func TestLPBoundProperties(t *testing.T) {
	sc, _ := platform.ScenarioByKey("b")
	lpf, err := LPBound(sc, SimOptions{Tiles: 24})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for n := 1; n <= sc.Platform.N(); n++ {
		v := lpf(n)
		if v <= 0 {
			t.Fatalf("LP(%d) = %v", n, v)
		}
		if v > prev+1e-9 {
			t.Fatalf("LP not non-increasing at n=%d: %v > %v", n, v, prev)
		}
		prev = v
	}
	// Clamping.
	if lpf(0) != lpf(1) || lpf(999) != lpf(sc.Platform.N()) {
		t.Fatal("LP bound should clamp out-of-range actions")
	}
}

// simplexLPBound is LP(n) in the general ICPP'21 formulation: the
// generation and factorization work as two lp.TaskClasses with per-node
// costs, solved by the dense simplex.
func simplexLPBound(t *testing.T, sc platform.Scenario, opts SimOptions, n int) float64 {
	t.Helper()
	p := sc.Platform
	b := float64(sc.Workload.TileSize)
	tl := float64(opts.tiles(sc))
	genCosts := make([]float64, p.N())
	for i, s := range p.GenSpeeds() {
		genCosts[i] = 1 / s
	}
	factCosts := make([]float64, p.N())
	for i, s := range p.FactSpeeds() {
		factCosts[i] = math.Inf(1)
		if i < n {
			factCosts[i] = 1 / s
		}
	}
	alloc, err := lp.SolveAllocation([]lp.TaskClass{
		{Name: "gen", Count: tl * (tl + 1) / 2 * b * b * geostat.GenFlopsPerElement, Costs: genCosts},
		{Name: "fact", Count: tl * tl * tl / 3 * b * b * b * 1e-9, Costs: factCosts},
	}, p.N())
	if err != nil {
		t.Fatalf("%s n=%d: %v", sc.Key, n, err)
	}
	return alloc.Makespan
}

// LPBound's closed form agrees with the simplex formulation to 1e-12
// relative on every scenario, workload size and action.
func TestLPBoundMatchesSimplex(t *testing.T) {
	for _, sc := range platform.Scenarios() {
		t.Run(sc.Key, func(t *testing.T) {
			t.Parallel()
			worst := 0.0
			for _, tiles := range []int{12, 24, 48, 101} {
				opts := SimOptions{Tiles: tiles}
				lpf, err := LPBound(sc, opts)
				if err != nil {
					t.Fatal(err)
				}
				for n := 1; n <= sc.Platform.N(); n++ {
					got, want := lpf(n), simplexLPBound(t, sc, opts, n)
					rel := math.Abs(got-want) / want
					worst = math.Max(worst, rel)
					if !(rel <= 1e-12) {
						t.Errorf("tiles=%d n=%d: closed form %v, simplex %v (rel %.3g)",
							tiles, n, got, want, rel)
					}
				}
			}
			t.Logf("worst relative difference %.3g", worst)
		})
	}
}

func TestCurveLowerBoundedByLP(t *testing.T) {
	c := testCurve(t, "b")
	for i := range c.Actions {
		if c.Sim[i] < c.LP[i]-1e-6 {
			t.Fatalf("simulated %v below LP bound %v at n=%d",
				c.Sim[i], c.LP[i], c.Actions[i])
		}
	}
}

func TestCurveAccessors(t *testing.T) {
	c := testCurve(t, "b")
	if c.Actions[0] != 2 || c.Actions[len(c.Actions)-1] != 14 {
		t.Fatalf("actions = %v", c.Actions)
	}
	best, bv := c.Best()
	if bv > c.AllNodes() {
		t.Fatalf("best (%v) worse than all-nodes (%v)", bv, c.AllNodes())
	}
	if got := c.SimAt(best); got != bv {
		t.Fatalf("SimAt(best) = %v, want %v", got, bv)
	}
	if !math.IsNaN(c.SimAt(999)) {
		t.Fatal("SimAt out of range should be NaN")
	}
	if !strings.Contains(c.Render(), "best:") {
		t.Fatal("Render missing summary")
	}
}

func TestCurveInteriorOptimum(t *testing.T) {
	// The paper's central premise: using all nodes is sub-optimal in
	// the limited-network scenarios.
	c := testCurve(t, "i")
	best, bv := c.Best()
	if best == c.Scenario.Platform.N() {
		t.Fatal("optimum at all nodes: no tuning problem to solve")
	}
	if bv >= c.AllNodes() {
		t.Fatal("interior optimum should beat all-nodes")
	}
}

func TestPoolMatchesCurve(t *testing.T) {
	c := testCurve(t, "b")
	pool := c.Pool(0.5, 30, 1)
	for i, a := range c.Actions {
		if pool.Len(a) != 30 {
			t.Fatalf("pool has %d obs for action %d", pool.Len(a), a)
		}
		m := pool.MeanOf(a)
		if math.Abs(m-c.Sim[i]) > 0.5 {
			t.Fatalf("pool mean %v far from sim %v at n=%d", m, c.Sim[i], a)
		}
	}
}

func TestContextFromCurve(t *testing.T) {
	c := testCurve(t, "b")
	ctx := c.Context()
	if err := ctx.Validate(); err != nil {
		t.Fatal(err)
	}
	if ctx.N != 14 || ctx.Min != 2 || len(ctx.GroupSizes) != 3 {
		t.Fatalf("ctx = %+v", ctx)
	}
	if ctx.LP == nil || ctx.LP(5) <= 0 {
		t.Fatal("ctx.LP missing")
	}
}

func TestCompareAllStrategies(t *testing.T) {
	c := testCurve(t, "b")
	cmp, err := Compare(c, 40, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Results) != len(StrategyNames) {
		t.Fatalf("results = %d", len(cmp.Results))
	}
	if cmp.BestStaticMean > cmp.AllNodesMean {
		t.Fatalf("best static (%v) worse than all nodes (%v)",
			cmp.BestStaticMean, cmp.AllNodesMean)
	}
	for _, r := range cmp.Results {
		if len(r.Totals) != 4 {
			t.Fatalf("%s has %d totals", r.Strategy, len(r.Totals))
		}
		if r.Mean <= 0 {
			t.Fatalf("%s mean = %v", r.Strategy, r.Mean)
		}
		// No strategy should be wildly worse than always-all-nodes on
		// this well-behaved scenario.
		if r.Mean > 2*cmp.AllNodesMean {
			t.Fatalf("%s mean %v vs baseline %v", r.Strategy, r.Mean,
				cmp.AllNodesMean)
		}
	}
	if cmp.Result("GP-discontinuous") == nil || cmp.Result("nope") != nil {
		t.Fatal("Result lookup broken")
	}
	if !strings.Contains(cmp.Render(), "GP-discontinuous") {
		t.Fatal("Render missing strategies")
	}
}

func TestGPDiscBeatsAllNodesBaseline(t *testing.T) {
	c := testCurve(t, "i")
	cmp, err := Compare(c, 60, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	r := cmp.Result("GP-discontinuous")
	if r.Mean >= cmp.AllNodesMean {
		t.Fatalf("GP-discontinuous (%v) not better than all-nodes (%v)",
			r.Mean, cmp.AllNodesMean)
	}
}

func TestNewStrategyUnknown(t *testing.T) {
	if _, err := NewStrategy("bogus", core.Context{N: 4}); err == nil {
		t.Fatal("unknown strategy should error")
	}
}

func TestStepByStepSnapshots(t *testing.T) {
	c := testCurve(t, "b")
	snaps := StepByStep(c, core.VariantDiscontinuous, []int{5, 8, 20}, 3)
	if len(snaps) != 3 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	if snaps[0].Iteration != 5 || snaps[2].Iteration != 20 {
		t.Fatalf("iterations = %d, %d", snaps[0].Iteration, snaps[2].Iteration)
	}
	// By iteration 20 the model must be fitted and counts populated.
	last := snaps[2]
	if len(last.Mean) == 0 {
		t.Fatal("no posterior at iteration 20")
	}
	total := 0
	for _, v := range last.Counts {
		total += v
	}
	if total != 19 {
		t.Fatalf("counts sum to %d, want 19", total)
	}
	if len(last.Allowed) == 0 {
		t.Fatal("allowed set missing")
	}
	out := RenderSnapshot(c, last)
	if !strings.Contains(out, "Iteration 20") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestMeasureOverheadShape(t *testing.T) {
	c := testCurve(t, "b")
	res := MeasureOverhead(c, 30, 3, 5)
	if len(res.PerIteration) != 30 || res.Reps != 3 {
		t.Fatalf("overhead result = %+v", res)
	}
	for i, v := range res.PerIteration {
		if v < 0 {
			t.Fatalf("negative overhead at iter %d", i)
		}
	}
	// The paper's observation: early (pre-GP) iterations are cheaper than
	// the model-based ones.
	early := res.PerIteration[0]
	model := res.PerIteration[10]
	if model <= early {
		t.Logf("note: model iteration (%v) not slower than first (%v)", model, early)
	}
	if res.Max <= 0 {
		t.Fatal("max overhead should be positive")
	}
}

func TestComputeGrid2D(t *testing.T) {
	sc, _ := platform.ScenarioByKey("b")
	g, err := ComputeGrid2D(sc, Grid2DOptions{
		Sim: SimOptions{Tiles: 16}, Stride: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.GenActions) == 0 || len(g.FactActions) == 0 {
		t.Fatal("empty grid")
	}
	if g.GenActions[len(g.GenActions)-1] != 14 {
		t.Fatalf("gen actions = %v", g.GenActions)
	}
	gen, fact, best := g.Best()
	if best <= 0 || gen < 2 || fact < 2 {
		t.Fatalf("best = (%d, %d, %v)", gen, fact, best)
	}
	if best > g.AllNodes() {
		t.Fatal("grid best worse than all-nodes cell")
	}
	if !strings.Contains(g.Render(), "best:") {
		t.Fatal("grid render missing")
	}
}

func TestRenderTables(t *testing.T) {
	t1 := RenderTableI()
	if !strings.Contains(t1, "GP-discontinuous") || !strings.Contains(t1, "Brent") {
		t.Fatalf("Table I:\n%s", t1)
	}
	t2 := RenderTableII()
	for _, want := range []string{"Chetemi", "Chifflet", "Chifflot", "B715"} {
		if !strings.Contains(t2, want) {
			t.Fatalf("Table II missing %s:\n%s", want, t2)
		}
	}
}

func TestFig3DemoCoverage(t *testing.T) {
	grid, xs, ys, err := Fig3Demo(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 8 || len(ys) != 8 {
		t.Fatalf("measurements = %d", len(xs))
	}
	if len(grid) < 50 {
		t.Fatalf("grid = %d points", len(grid))
	}
	if cov := CoverageOfFig3(grid); cov < 0.9 {
		t.Fatalf("coverage = %v", cov)
	}
}

func TestGenNodesRestriction(t *testing.T) {
	// Fewer generation nodes must not crash and should change the result.
	sc, _ := platform.ScenarioByKey("b")
	full, err := SimulateIteration(sc, 6, SimOptions{Tiles: 16})
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := SimulateIteration(sc, 6, SimOptions{Tiles: 16, GenNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if full == restricted {
		t.Fatal("generation restriction had no effect")
	}
}
