package geostat

import (
	"fmt"

	"phasetune/internal/cholesky"
	"phasetune/internal/distribution"
	"phasetune/internal/taskrt"
)

// GenFlopsPerElement is the calibrated cost of generating one covariance
// matrix element (Matérn evaluation) in Gflop. It controls the relative
// length of the CPU-only generation phase versus the factorization, tuned
// so the phase proportions match the paper's Figures 1-2.
const GenFlopsPerElement = 8e-6

// IterationSpec parameterizes the task graph of one application iteration
// for the simulated runtime.
//
// Node indices are platform indices (fastest first): the generation phase
// runs on nodes 0..len(GenSpeeds)-1 and the factorization on nodes
// 0..len(FactSpeeds)-1, mirroring the paper where generation uses all
// nodes and factorization the n fastest.
type IterationSpec struct {
	Tiles     int
	TileSize  int
	TileBytes float64
	// GenSpeeds are the CPU speeds of the generation nodes.
	GenSpeeds []float64
	// FactSpeeds are the factorization speeds of the factorization nodes.
	FactSpeeds []float64
}

// BuildIterationGraph submits the five phases of one iteration to the
// runtime: generation tasks (CPU-only, spread over the generation nodes),
// the tiled Cholesky DAG (over the factorization nodes, fine-grained
// dependencies letting the phases overlap), and the small solve /
// determinant / dot-product chains. It compiles the iteration's template
// and submits it — the path every simulation takes; callers that
// simulate many node counts of one shape compile once and Submit per run.
func BuildIterationGraph(rt *taskrt.Runtime, spec IterationSpec) error {
	tp, err := CompileIteration(spec)
	if err != nil {
		return err
	}
	return tp.Submit(rt, spec.FactSpeeds)
}

// IterationTemplate is the compiled task graph of one iteration shape:
// task kinds, costs, priorities and dependencies for given tiles, tile
// size, tile bytes and generation speeds. It is immutable once built and
// holds no per-run state or result, so any number of runtimes may Submit
// it concurrently; only the factorization placement depends on the node
// count a run is given.
type IterationTemplate struct {
	tiles int
	// graph's places [0, nTiles) are the lower-triangle tiles in
	// row-major order, resolved to their factorization owners per
	// Submit; place nTiles+k is generation node k.
	graph  *taskrt.Graph
	nTiles int
	nGen   int
}

// CompileIteration builds the template of spec's iteration shape.
// spec.FactSpeeds is not used: it is supplied per Submit.
func CompileIteration(spec IterationSpec) (*IterationTemplate, error) {
	if spec.Tiles <= 0 || spec.TileSize <= 0 {
		return nil, fmt.Errorf("geostat: bad iteration spec %+v", spec)
	}
	if len(spec.GenSpeeds) == 0 {
		return nil, fmt.Errorf("geostat: empty node speed sets")
	}
	T := spec.Tiles
	nTiles := T * (T + 1) / 2
	g := taskrt.NewGraph(nTiles + len(spec.GenSpeeds))
	tile := func(i, j int) int { return i*(i+1)/2 + j }
	genDist := distribution.GenerationDist(T, spec.GenSpeeds)

	b := float64(spec.TileSize)
	genFlops := b * b * GenFlopsPerElement

	// Generation: one CPU-only task per lower-triangle tile. Priority
	// follows the panel that first consumes the tile so early panels'
	// inputs materialize first and factorization overlaps generation.
	producers := make([][]*taskrt.Task, T)
	for i := 0; i < T; i++ {
		producers[i] = make([]*taskrt.Task, i+1)
		for j := 0; j <= i; j++ {
			prio := int64(T-j) * 4
			producers[i][j] = g.Add(taskrt.NewName("gen", i, j), "gen",
				genFlops, nTiles+genDist.Owner(i, j), true, prio)
		}
	}

	potrfs := cholesky.BuildDAG(g, T, spec.TileBytes,
		cholesky.KernelCosts(spec.TileSize), tile, producers)

	// Solve: tiled forward/backward substitution approximated as a chain
	// of per-diagonal tasks gated by the panel roots.
	const gf = 1e-9
	vecBytes := b * 8
	trsvFlops := 2 * b * b * gf
	var prev *taskrt.Task
	for k := 0; k < T; k++ {
		s := g.Add(taskrt.NewName("solve", k), "solve",
			trsvFlops, tile(k, k), false, 2)
		g.AddDep(s, potrfs[k], spec.TileBytes)
		g.AddDep(s, prev, vecBytes)
		prev = s
	}
	solveTail := prev

	// Determinant: per-diagonal log-sums reduced along a chain.
	var dprev *taskrt.Task
	for k := 0; k < T; k++ {
		d := g.Add(taskrt.NewName("det", k), "det",
			b*gf, tile(k, k), false, 1)
		g.AddDep(d, potrfs[k], 0)
		g.AddDep(d, dprev, 8)
		dprev = d
	}

	// Dot product: consumes the solve result.
	dot := g.Add(taskrt.NewName("dot"), "dot", 2*b*float64(T)*gf,
		tile(T-1, T-1), false, 0)
	g.AddDep(dot, solveTail, vecBytes)
	g.AddDep(dot, dprev, 8)
	g.Freeze()
	return &IterationTemplate{tiles: T, graph: g, nTiles: nTiles, nGen: len(spec.GenSpeeds)}, nil
}

// Submit instantiates the template on an empty runtime with the
// factorization distributed over nodes 0..len(factSpeeds)-1
// (owner-computes over the weighted 2D grid).
func (tp *IterationTemplate) Submit(rt *taskrt.Runtime, factSpeeds []float64) error {
	if len(factSpeeds) == 0 {
		return fmt.Errorf("geostat: empty node speed sets")
	}
	factDist := distribution.WeightedGrid(tp.tiles, factSpeeds)
	nodeOf := make([]int, tp.nTiles+tp.nGen)
	p := 0
	for i := 0; i < tp.tiles; i++ {
		for j := 0; j <= i; j++ {
			nodeOf[p] = factDist.Owner(i, j)
			p++
		}
	}
	for k := 0; k < tp.nGen; k++ {
		nodeOf[tp.nTiles+k] = k
	}
	rt.Submit(tp.graph, nodeOf)
	return nil
}
