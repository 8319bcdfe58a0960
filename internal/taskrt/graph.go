package taskrt

import (
	"fmt"
	"strconv"
)

// Name is a task label in deferred form: an operation followed by up to
// three integer arguments, rendered as "op(a,b,c)" (or just "op" with no
// arguments). Builders hand names to Add in this form so that the tens
// of thousands of labels of an iteration are only formatted when an
// observer is attached to the run that executes them.
type Name struct {
	Op   string
	Args [3]int32
	N    uint8 // number of Args in use
}

// NewName builds a deferred name from an operation and at most three
// arguments.
func NewName(op string, args ...int) Name {
	if len(args) > len(Name{}.Args) {
		panic(fmt.Sprintf("taskrt: name %s with %d arguments", op, len(args)))
	}
	n := Name{Op: op, N: uint8(len(args))}
	for i, a := range args {
		n.Args[i] = int32(a)
	}
	return n
}

// String renders the label.
func (n Name) String() string {
	if n.N == 0 {
		return n.Op
	}
	b := make([]byte, 0, len(n.Op)+2+6*int(n.N))
	b = append(b, n.Op...)
	b = append(b, '(')
	for i := 0; i < int(n.N); i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n.Args[i]), 10)
	}
	return string(append(b, ')'))
}

// Graph is a flat, index-based task graph. Tasks live in slabs indexed
// by ID; dependencies are recorded as a flat edge list in declaration
// order until Freeze turns them into CSR successor and producer arrays
// and drops the list. A Runtime builds its own Graph through
// NewTask/AddDep; a template Graph is built once over abstract places,
// frozen, and then shared read-only by any number of runtimes
// (concurrently) through Runtime.Submit, which copies the tasks and
// resolves each place to a node.
type Graph struct {
	places int
	n      int
	slabs  [][]Task // tasks in ID order, taskSlab per slab
	names  [][]Name // their deferred names, slabbed alike
	// edges records AddDep calls in slabs too, so a large build never
	// re-copies what it already recorded. Freeze releases it.
	edges  [][]rawEdge
	frozen bool
	succ   adjacency // keyed by producer, consumers in declaration order
	prod   adjacency // keyed by consumer, producers in declaration order
}

// rawEdge is one AddDep call before freezing.
type rawEdge struct {
	prod, cons int32
	bytes      float64
}

// adjacency is a CSR neighbour list: the neighbours of task i are
// to[off[i]:off[i+1]] with matching bytes.
type adjacency struct {
	off   []int32
	to    []int32
	bytes []float64
}

// taskSlab and edgeSlab are how many tasks and edges one slab
// allocation of a graph under construction holds. Slabs never grow, so
// task handles stay valid while the graph is built.
const (
	taskSlab = 1024
	edgeSlab = 4096
)

// NewGraph returns an empty graph whose tasks are placed on places
// abstract placement slots, resolved to nodes at Submit.
func NewGraph(places int) *Graph { return &Graph{places: places} }

// Add declares a task with a deferred name on a place and returns its
// handle, whose Node holds the place until Submit resolves it.
func (g *Graph) Add(name Name, kind string, flops float64, place int, cpuOnly bool, priority int64) *Task {
	if g.frozen {
		panic("taskrt: adding a task to a frozen graph")
	}
	return g.add(name, kind, flops, place, cpuOnly, priority)
}

func (g *Graph) add(name Name, kind string, flops float64, place int, cpuOnly bool, priority int64) *Task {
	if place < 0 || place >= g.places {
		panic(fmt.Sprintf("taskrt: task %q on unknown node %d", name.String(), place))
	}
	if g.n%taskSlab == 0 {
		g.slabs = append(g.slabs, make([]Task, 0, taskSlab))
		g.names = append(g.names, make([]Name, 0, taskSlab))
	}
	last := len(g.slabs) - 1
	g.names[last] = append(g.names[last], name)
	s := &g.slabs[last]
	*s = append(*s, Task{
		ID: g.n, Kind: kind, Flops: flops, Node: place,
		CPUOnly: cpuOnly, Priority: priority,
	})
	g.n++
	return &(*s)[len(*s)-1]
}

// AddDep declares that consumer needs producer's output of the given
// size. A nil producer is ignored.
func (g *Graph) AddDep(consumer, producer *Task, bytes float64) {
	if producer == nil {
		return
	}
	if producer.done {
		panic("taskrt: dependency on an already-executed task")
	}
	if g.frozen {
		panic("taskrt: adding a dependency to a frozen graph")
	}
	if k := len(g.edges); k == 0 || len(g.edges[k-1]) == edgeSlab {
		g.edges = append(g.edges, make([]rawEdge, 0, edgeSlab))
	}
	s := &g.edges[len(g.edges)-1]
	*s = append(*s, rawEdge{prod: int32(producer.ID), cons: int32(consumer.ID), bytes: bytes})
}

// label renders task id's deferred name.
func (g *Graph) label(id int) string { return g.names[id/taskSlab][id%taskSlab].String() }

// Freeze turns the recorded edges into the successor and producer CSR
// arrays, stores each task's dependency count and releases the edge
// list. It is idempotent; a frozen graph accepts no more dependencies
// and is safe for concurrent Submits.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	g.succ = buildAdjacency(g.n, g.edges, func(e rawEdge) (int32, int32) { return e.prod, e.cons })
	g.prod = buildAdjacency(g.n, g.edges, func(e rawEdge) (int32, int32) { return e.cons, e.prod })
	for id := 0; id < g.n; id++ {
		g.slabs[id/taskSlab][id%taskSlab].nDeps = g.prod.off[id+1] - g.prod.off[id]
	}
	g.edges = nil
	g.frozen = true
}

// addAfterFreeze appends a task without dependencies to a frozen graph,
// giving it empty adjacency rows so the CSR arrays stay indexable by
// every task ID. Only a runtime's own graph takes tasks after its Run.
func (g *Graph) addAfterFreeze(name Name, kind string, flops float64, place int, cpuOnly bool, priority int64) *Task {
	t := g.add(name, kind, flops, place, cpuOnly, priority)
	g.succ.off = append(g.succ.off, g.succ.off[len(g.succ.off)-1])
	g.prod.off = append(g.prod.off, g.prod.off[len(g.prod.off)-1])
	return t
}

// buildAdjacency groups edges by key with a stable counting sort, so the
// neighbours of each task keep their declaration order — the order in
// which the runtime releases consumers and starts transfers.
func buildAdjacency(n int, edges [][]rawEdge, split func(rawEdge) (key, other int32)) adjacency {
	m := 0
	for _, s := range edges {
		m += len(s)
	}
	a := adjacency{
		off:   make([]int32, n+1),
		to:    make([]int32, m),
		bytes: make([]float64, m),
	}
	for _, s := range edges {
		for _, e := range s {
			k, _ := split(e)
			a.off[k+1]++
		}
	}
	for i := 0; i < n; i++ {
		a.off[i+1] += a.off[i]
	}
	next := make([]int32, n)
	copy(next, a.off[:n])
	for _, s := range edges {
		for _, e := range s {
			k, o := split(e)
			p := next[k]
			next[k]++
			a.to[p] = o
			a.bytes[p] = e.bytes
		}
	}
	return a
}
