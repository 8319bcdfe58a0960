package harness

import (
	"runtime"
	"testing"

	"phasetune/internal/core"
	"phasetune/internal/geostat"
	"phasetune/internal/platform"
)

// simAllocBudget bounds the heap allocations of one scenario-b,
// 48-tile iteration at 7 factorization nodes (the
// BenchmarkSimulateIteration101 point): twice the 1085 measured with
// compile-once simulation on go1.24/amd64. Allocation counts do not
// depend on timing, so this gate cannot flake; it fails when a change
// puts per-task or per-event allocations back on the simulation path.
const simAllocBudget = 2 * 1085

func TestSimulationAllocBudget(t *testing.T) {
	sc, _ := platform.ScenarioByKey("b")
	opts := SimOptions{Tiles: 48}
	const nFact = 7
	full := testing.AllocsPerRun(3, func() {
		if _, err := SimulateIteration(sc, nFact, opts); err != nil {
			t.Fatal(err)
		}
	})
	if full > simAllocBudget {
		t.Fatalf("SimulateIteration: %.0f allocs/op, budget %d", full, simAllocBudget)
	}

	// The 2nd..nth action of one batch reuse its compiled template:
	// each stays under the budget, and the 7-node run saves most of what
	// compiling the template costs.
	p := sc.Platform
	compile := testing.AllocsPerRun(3, func() {
		if _, err := geostat.CompileIteration(geostat.IterationSpec{
			Tiles: 48, TileSize: sc.Workload.TileSize,
			TileBytes: sc.Workload.TileBytes(), GenSpeeds: p.GenSpeeds(),
		}); err != nil {
			t.Fatal(err)
		}
	})
	ev := NewEvaluator(sc, opts).Batch()
	if _, err := ev.Evaluate(p.N()); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= p.N(); n++ {
		reused := testing.AllocsPerRun(1, func() {
			if _, err := ev.Evaluate(n); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("n=%d: %.0f allocs", n, reused)
		if reused > simAllocBudget {
			t.Errorf("batch action n=%d: %.0f allocs/op, budget %d", n, reused, simAllocBudget)
		}
		if n == nFact && reused > full-compile/2 {
			t.Errorf("batch action n=%d: %.0f allocs/op against %.0f for compile+run (compile alone %.0f): template not reused",
				n, reused, full, compile)
		}
	}
	t.Logf("compile+run %.0f allocs/op, compile %.0f", full, compile)
}

// lpBoundAllocBudget bounds the heap allocations of one LPBound call on
// scenario p (128 nodes): the rate and cache slices, the solver's
// scratch and the returned closure, 7 on go1.24/amd64, independent of
// the node count. One allocation per action fails it, as the per-n cost
// vectors and simplex tableaux of the general LP formulation did.
const lpBoundAllocBudget = 10

func TestLPBoundAllocs(t *testing.T) {
	sc, _ := platform.ScenarioByKey("p")
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := LPBound(sc, SimOptions{Tiles: 24}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > lpBoundAllocBudget {
		t.Fatalf("LPBound on %d nodes: %.0f allocs/op, budget %d", sc.Platform.N(), allocs, lpBoundAllocBudget)
	}
	t.Logf("LPBound on %d nodes: %.0f allocs/op", sc.Platform.N(), allocs)
}

// retainedBytes reports how much live heap keep holds after calling
// fill on it, measured across forced collections.
func retainedBytes(t *testing.T, fill func() any) int64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := fill()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// An engine session keeps its Evaluator for its whole life, so an
// evaluation must leave nothing behind on it; only a Batch, which lives
// for one sweep, holds the compiled template.
func TestEvaluatorRetainsNoTemplate(t *testing.T) {
	sc, _ := platform.ScenarioByKey("b")
	opts := SimOptions{Tiles: 48}
	evaluate := func(ev interface{ Evaluate(int) (float64, error) }) {
		if _, err := ev.Evaluate(7); err != nil {
			t.Fatal(err)
		}
	}
	batch := retainedBytes(t, func() any {
		b := NewEvaluator(sc, opts).Batch()
		evaluate(b)
		return b
	})
	session := retainedBytes(t, func() any {
		ev := NewEvaluator(sc, opts)
		evaluate(ev)
		evaluate(ev)
		return ev
	})
	t.Logf("retained after evaluation: batch %d B, evaluator %d B", batch, session)
	// The template is megabytes at 48 tiles: a batch that retained less
	// than this would mean the measurement cannot see it.
	const limit = 1 << 20
	if batch < limit {
		t.Fatalf("batch retains %d B, want the template (> %d B)", batch, limit)
	}
	if session >= limit {
		t.Fatalf("evaluator retains %d B after evaluating: a template is pinned on it", session)
	}
}

// gpDecisionStrategy returns a GP-discontinuous strategy on scenario p
// (128 nodes) at 24 tiles that has observed 50 RunOnline iterations:
// its next Next is a model-based decision over every allowed action.
func gpDecisionStrategy(tb testing.TB) core.Strategy {
	tb.Helper()
	sc, _ := platform.ScenarioByKey("p")
	opts := SimOptions{Tiles: 24}
	lp, err := LPBound(sc, opts)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewStrategy("GP-discontinuous", core.Context{
		N: sc.Platform.N(), Min: sc.MinNodes, GroupSizes: sc.Platform.GroupSizes(), LP: lp,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := RunOnline(sc, s, 50, opts, 1); err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkGPDecision is the GP decision layer of a cached engine step:
// one model-based Next of GP-discontinuous on scenario p after 50
// observations (fit, then the posterior at every allowed action).
func BenchmarkGPDecision(b *testing.B) {
	s := gpDecisionStrategy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

// gpDecisionAllocBudget bounds the heap allocations of one model-based
// GP-discontinuous decision (BenchmarkGPDecision): twice the 6
// allocs/op that the state-space fit and posterior make on
// go1.24/amd64, with the noise estimate and the OLS pre-fit in the
// strategy's reused buffers. One allocation per observation or per
// allowed action (119 on scenario p) would exceed it.
const gpDecisionAllocBudget = 2 * 6

func TestGPDecisionAllocs(t *testing.T) {
	s := gpDecisionStrategy(t)
	allocs := testing.AllocsPerRun(20, func() { s.Next() })
	if allocs > gpDecisionAllocBudget {
		t.Fatalf("GP decision: %.0f allocs/op, budget %d", allocs, gpDecisionAllocBudget)
	}
	t.Logf("GP decision: %.0f allocs/op", allocs)
}
