package taskrt

import (
	"testing"
	"testing/quick"

	"phasetune/internal/des"
	"phasetune/internal/simnet"
	"phasetune/internal/stats"
)

// TestMakespanLowerBounds checks two invariants on random DAGs executed
// over a contention-free platform:
//  1. makespan >= total work / total speed (area bound), and
//  2. makespan >= the longest dependency chain's work / fastest unit
//     (critical-path bound).
func TestMakespanLowerBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		nNodes := 1 + rng.Intn(4)
		specs := make([]NodeSpec, nNodes)
		totalSpeed, maxSpeed := 0.0, 0.0
		for i := range specs {
			speed := 1 + rng.Float64()*9
			specs[i] = NodeSpec{CPUSpeed: speed}
			totalSpeed += speed
			if speed > maxSpeed {
				maxSpeed = speed
			}
		}
		eng := des.NewEngine()
		rt := New(eng, specs, simnet.NewFluid(eng, nNodes,
			simnet.Topology{NICBandwidth: 1e15}))
		rt.TaskOverhead = 0

		nTasks := 1 + rng.Intn(30)
		tasks := make([]*Task, nTasks)
		chainWork := make([]float64, nTasks) // heaviest chain ending here
		totalWork := 0.0
		maxChain := 0.0
		for i := 0; i < nTasks; i++ {
			w := 0.5 + rng.Float64()*5
			totalWork += w
			tasks[i] = rt.NewTask("t", "w", w, rng.Intn(nNodes), false, 0)
			chainWork[i] = w
			// Random back-edges keep the graph acyclic.
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.15 {
					rt.AddDep(tasks[i], tasks[j], 0)
					if c := chainWork[j] + w; c > chainWork[i] {
						chainWork[i] = c
					}
				}
			}
			if chainWork[i] > maxChain {
				maxChain = chainWork[i]
			}
		}
		mk := rt.Run()
		if mk < totalWork/totalSpeed-1e-9 {
			return false
		}
		return mk >= maxChain/maxSpeed-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAllTasksExecuteExactlyOnce(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		eng := des.NewEngine()
		rt := New(eng, []NodeSpec{{CPUSpeed: 2}, {CPUSpeed: 1, GPUSpeeds: []float64{5}}},
			simnet.NewFast(eng, 2, simnet.Topology{NICBandwidth: 1e6}))
		n := 1 + rng.Intn(25)
		rec := &countObserver{}
		rt.SetObserver(rec)
		tasks := make([]*Task, n)
		for i := range tasks {
			tasks[i] = rt.NewTask("t", "w", 1, rng.Intn(2), rng.Float64() < 0.3, int64(rng.Intn(5)))
			if i > 0 && rng.Float64() < 0.5 {
				rt.AddDep(tasks[i], tasks[rng.Intn(i)], 100)
			}
		}
		rt.Run()
		if rec.started != n || rec.finished != n {
			return false
		}
		for _, task := range tasks {
			if !task.Done() || task.Finished() < task.Started() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

type countObserver struct{ started, finished int }

func (c *countObserver) TaskStarted(*Task, string, float64)  { c.started++ }
func (c *countObserver) TaskFinished(*Task, string, float64) { c.finished++ }

func TestAddDepAfterExecutionPanics(t *testing.T) {
	eng := des.NewEngine()
	rt := New(eng, []NodeSpec{{CPUSpeed: 1}},
		simnet.NewFluid(eng, 1, simnet.Topology{NICBandwidth: 1}))
	a := rt.NewTask("a", "w", 1, 0, false, 0)
	rt.Run()
	b := rt.NewTask("b", "w", 1, 0, false, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("AddDep on executed producer should panic")
		}
	}()
	rt.AddDep(b, a, 0)
}

func TestNilProducerDependencyIgnored(t *testing.T) {
	eng := des.NewEngine()
	rt := New(eng, []NodeSpec{{CPUSpeed: 1}},
		simnet.NewFluid(eng, 1, simnet.Topology{NICBandwidth: 1}))
	rt.TaskOverhead = 0
	b := rt.NewTask("b", "w", 1, 0, false, 0)
	rt.AddDep(b, nil, 100)
	if mk := rt.Run(); mk != 1 {
		t.Fatalf("makespan = %v", mk)
	}
}

// Deferred names are only rendered for observed runs.
func TestLabelsDeferredWithoutObserver(t *testing.T) {
	eng := des.NewEngine()
	net := simnet.NewFast(eng, 1, simnet.Topology{NICBandwidth: 1e9})
	g := NewGraph(1)
	g.Add(NewName("gemm", 3, 2, 1), "gemm", 1, 0, false, 0)
	g.Freeze()
	rt := New(eng, []NodeSpec{{CPUSpeed: 1}}, net)
	rt.Submit(g, []int{0})
	rt.Run()
	if l := rt.tasks[0].Label; l != "" {
		t.Fatalf("unobserved run rendered label %q", l)
	}
	eng = des.NewEngine()
	rt = New(eng, []NodeSpec{{CPUSpeed: 1}}, simnet.NewFast(eng, 1, simnet.Topology{NICBandwidth: 1e9}))
	rt.Submit(g, []int{0})
	rt.SetObserver(&countObserver{})
	rt.Run()
	if l := rt.tasks[0].Label; l != "gemm(3,2,1)" {
		t.Fatalf("observed run labelled %q, want gemm(3,2,1)", l)
	}
	eng = des.NewEngine()
	rt = New(eng, []NodeSpec{{CPUSpeed: 1}}, simnet.NewFast(eng, 1, simnet.Topology{NICBandwidth: 1e9}))
	if b := rt.NewTask("eager", "w", 1, 0, false, 0); b.Label != "eager" {
		t.Fatalf("NewTask label %q, want eager", b.Label)
	}
}
