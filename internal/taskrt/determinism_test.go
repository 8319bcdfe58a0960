package taskrt_test

import (
	"fmt"
	"testing"

	"phasetune/internal/des"
	"phasetune/internal/geostat"
	"phasetune/internal/simnet"
	"phasetune/internal/taskrt"
)

// span is one executed task as an observer sees it.
type span struct {
	id         int
	label      string
	node       int
	unit       string
	start, end float64
}

type spanLog struct{ spans []span }

func (l *spanLog) TaskStarted(*taskrt.Task, string, float64) {}
func (l *spanLog) TaskFinished(t *taskrt.Task, unit string, at float64) {
	l.spans = append(l.spans, span{t.ID, t.Label, t.Node, unit, t.Started(), at})
}

// tieHeavyIteration runs one iteration on identical nodes, where equal
// kernels released together finish at the same instant on several
// nodes: any map order reaching the event queue (for instance in which
// order a completion dispatches the nodes it released work on) shows up
// as a different schedule.
func tieHeavyIteration(t *testing.T, newNet func(*des.Engine, int) simnet.Network) []span {
	t.Helper()
	const nodes = 6
	specs := make([]taskrt.NodeSpec, nodes)
	speeds := make([]float64, nodes)
	for i := range specs {
		specs[i] = taskrt.NodeSpec{CPUSpeed: 400, CPUCores: 4, GPUSpeeds: []float64{1600, 1600}}
		speeds[i] = 400
	}
	eng := des.NewEngine()
	rt := taskrt.New(eng, specs, newNet(eng, nodes))
	log := &spanLog{}
	rt.SetObserver(log)
	err := geostat.BuildIterationGraph(rt, geostat.IterationSpec{
		Tiles: 10, TileSize: 480, TileBytes: 480 * 480 * 8,
		GenSpeeds: speeds, FactSpeeds: speeds[:4],
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	return log.spans
}

// eagerLabels lists, by task ID, the labels the iteration builder
// formatted eagerly before names were deferred.
func eagerLabels(T int) []string {
	var out []string
	for i := 0; i < T; i++ {
		for j := 0; j <= i; j++ {
			out = append(out, fmt.Sprintf("gen(%d,%d)", i, j))
		}
	}
	for k := 0; k < T; k++ {
		out = append(out, fmt.Sprintf("potrf(%d)", k))
		for i := k + 1; i < T; i++ {
			out = append(out, fmt.Sprintf("trsm(%d,%d)", i, k))
		}
		for i := k + 1; i < T; i++ {
			for j := k + 1; j <= i; j++ {
				if i == j {
					out = append(out, fmt.Sprintf("syrk(%d,%d)", i, k))
				} else {
					out = append(out, fmt.Sprintf("gemm(%d,%d,%d)", i, j, k))
				}
			}
		}
	}
	for k := 0; k < T; k++ {
		out = append(out, fmt.Sprintf("solve(%d)", k))
	}
	for k := 0; k < T; k++ {
		out = append(out, fmt.Sprintf("det(%d)", k))
	}
	return append(out, "dot")
}

func TestTieHeavyScheduleIsReproducible(t *testing.T) {
	nets := map[string]func(*des.Engine, int) simnet.Network{
		"fast": func(e *des.Engine, n int) simnet.Network {
			return simnet.NewFast(e, n, simnet.Topology{NICBandwidth: 1e9, BackboneBandwidth: 4e9, Latency: 1e-5})
		},
		"fluid": func(e *des.Engine, n int) simnet.Network {
			return simnet.NewFluid(e, n, simnet.Topology{NICBandwidth: 1e9, BackboneBandwidth: 4e9, Latency: 1e-5})
		},
	}
	for _, name := range []string{"fast", "fluid"} {
		t.Run(name, func(t *testing.T) {
			ref := tieHeavyIteration(t, nets[name])
			want := eagerLabels(10)
			if len(ref) != len(want) {
				t.Fatalf("%d spans, want %d tasks", len(ref), len(want))
			}
			ties := map[float64]int{}
			for _, s := range ref {
				if s.label != want[s.id] {
					t.Fatalf("task %d labelled %q, want %q", s.id, s.label, want[s.id])
				}
				ties[s.end]++
			}
			shared := 0
			for _, n := range ties {
				if n > 1 {
					shared += n
				}
			}
			if shared < len(ref)/4 {
				t.Fatalf("only %d of %d tasks share an end time: not tie-heavy", shared, len(ref))
			}
			for run := 1; run < 20; run++ {
				got := tieHeavyIteration(t, nets[name])
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("run %d diverges at span %d: %+v, first run %+v", run, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// fanOut runs a DAG in which one completion releases work on several
// nodes at once: zero-byte dependencies resolve without a transfer, so
// the producer's completion makes c1..c4 ready on four nodes in the same
// instant. The nodes are identical, so the four finish together and the
// order they were dispatched in decides the order their outputs enter
// the shared network — and so every later span.
func fanOut(t *testing.T) []span {
	t.Helper()
	const nodes = 6
	specs := make([]taskrt.NodeSpec, nodes)
	for i := range specs {
		specs[i] = taskrt.NodeSpec{CPUSpeed: 10}
	}
	eng := des.NewEngine()
	rt := taskrt.New(eng, specs, simnet.NewFast(eng, nodes, simnet.Topology{NICBandwidth: 1e3}))
	log := &spanLog{}
	rt.SetObserver(log)
	p := rt.NewTask("p", "w", 10, 0, false, 0)
	for i := 1; i <= 4; i++ {
		c := rt.NewTask(fmt.Sprintf("c(%d)", i), "w", 10, i, false, 0)
		rt.AddDep(c, p, 0)
		d := rt.NewTask(fmt.Sprintf("d(%d)", i), "w", 10, nodes-1, false, int64(i))
		rt.AddDep(d, c, 1e3)
	}
	rt.Run()
	return log.spans
}

func TestFanOutDispatchOrderIsFixed(t *testing.T) {
	ref := fanOut(t)
	for run := 1; run < 20; run++ {
		got := fanOut(t)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("run %d diverges at span %d: %+v, first run %+v", run, i, got[i], ref[i])
			}
		}
	}
	// First-touch order: c1..c4 were released in declaration order, so
	// their outputs leave in that order and d(4) runs last.
	if last := ref[len(ref)-1]; last.label != "d(4)" {
		t.Fatalf("last span %+v, want d(4)", last)
	}
}
