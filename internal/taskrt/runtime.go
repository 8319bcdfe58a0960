// Package taskrt is a sequential-task-flow runtime in the style of StarPU
// running over simulated time: tasks form a DAG, every task executes on
// the node that owns the data it writes (owner-computes), nodes expose
// heterogeneous execution units (aggregated CPU cores and individual
// GPUs), inter-node data dependencies become asynchronous network
// transfers that overlap with computation, and per-node schedulers pick
// ready tasks by priority — the mechanisms that give multi-phase
// applications their makespan behaviour in the paper.
//
// The DAG is a flat, index-based Graph (see graph.go). A runtime either
// builds its own through NewTask/Add/AddDep, or instantiates a frozen
// template through Submit; both run over the same CSR arrays.
package taskrt

import (
	"fmt"
	"math/bits"

	"phasetune/internal/des"
	"phasetune/internal/simnet"
)

// Task is one node-assigned unit of work in the DAG.
type Task struct {
	ID int
	// Label is the task's name. Tasks declared with a deferred Name get
	// it filled in when a run starts with an observer attached.
	Label    string
	Kind     string // kernel type, used for tracing and phase aggregation
	Flops    float64
	Node     int
	CPUOnly  bool  // generation-style kernels that never run on a GPU unit
	Priority int64 // larger runs first among ready tasks

	done    bool
	running bool
	nDeps   int32
	// comms heads this producer's list of transfers (index+1 into
	// Runtime.comms, 0 when none).
	comms int32
	// pendingDeps tracks, per producer ID, how many of this task's
	// dependencies are still outstanding. It is nil on healthy runs (the
	// plain nDeps counter suffices) and materialized by a fault rebuild,
	// where a producer may complete a second time for consumers whose
	// dependency was already satisfied by a cached data copy.
	pendingDeps map[int]int
	started     float64
	finished    float64
}

// Started returns the simulated start time (valid after Run).
func (t *Task) Started() float64 { return t.started }

// Finished returns the simulated completion time (valid after Run).
func (t *Task) Finished() float64 { return t.finished }

// Done reports whether the task executed.
func (t *Task) Done() bool { return t.done }

// NodeSpec describes one node's execution units.
type NodeSpec struct {
	// CPUSpeed is the aggregated speed of the node's CPU cores in
	// Gflop/s.
	CPUSpeed float64
	// CPUCores splits CPUSpeed over that many independent CPU worker
	// units (one task each, StarPU-style). Zero or one exposes a single
	// aggregated CPU unit. Per-core units matter for fidelity: one tile
	// kernel on one core is orders of magnitude slower than on a GPU,
	// which is what creates the paper's critical-path cliffs on CPU-only
	// nodes.
	CPUCores int
	// GPUSpeeds lists each GPU's speed in Gflop/s.
	GPUSpeeds []float64
}

// Observer receives task lifecycle events (used by the trace package).
// A nil observer costs nothing.
type Observer interface {
	TaskStarted(t *Task, unit string, at float64)
	TaskFinished(t *Task, unit string, at float64)
}

// unit is one execution resource of a node.
type unit struct {
	name  string  // built only when an observer is attached
	speed float64 // nominal Gflop/s (scaled by the node's fault factor)
	isGPU bool
	node  int32
	slot  int32      // bit of this unit in its node's free set
	cur   *Task      // task in flight, for fault abort/rescale
	ev    *des.Event // its completion event
	rt    *Runtime
}

// Fire completes the unit's task: the unit is its own, reused,
// completion callback (a des.Handler), so running a task allocates
// nothing.
func (u *unit) Fire() { u.rt.finish(u) }

// nodeState holds a node's units and ready queues.
type nodeState struct {
	cpus, gpus []unit // views into the runtime's unit slab
	// cpuFree and gpuFree are bitsets of idle units (bit k = unit k),
	// with their population counts, so dispatch finds the lowest idle
	// unit without scanning the busy ones.
	cpuFree, gpuFree   []uint64
	nFreeCPU, nFreeGPU int
	dead               bool    // the node crashed (fault injection)
	factor             float64 // compute speed factor (1 = nominal)
	hasCPU             bool
	touched            bool       // queued in Runtime.touched
	anyQ               readyQueue // tasks runnable on any unit
	cpuOnlyQ           readyQueue // tasks restricted to CPU units
	// cpuPull is the dmda-style threshold: a CPU unit steals GPU-capable
	// work only when more than cpuPull tasks are queued (otherwise the
	// task is worth waiting for a GPU, which is cpuPull times faster).
	// Zero on nodes without GPUs.
	cpuPull int
}

// Runtime owns the DAG and drives it over the DES engine.
type Runtime struct {
	eng   *des.Engine
	net   simnet.Network
	nodes []nodeState
	own   Graph   // the graph NewTask/AddDep build
	g     *Graph  // the structure being run: &own or a submitted template
	tasks []*Task // live tasks indexed by ID
	obs   Observer
	// touched lists the nodes a completion released work on, in
	// first-touch order, so they are dispatched in a fixed order.
	touched  []int32
	nPending int
	// comms deduplicates transfers per (producer, destination node):
	// a tile produced once and consumed by many tasks on the same remote
	// node crosses the network once, as under StarPU's MSI cache. Each
	// producer's transfers form a list threaded through Task.comms.
	comms   []commState
	waiters []waiter
	// freeWaiter heads the list of recycled waiter entries (index+1).
	freeWaiter int32
	// freeArrivals recycles transfer-completion callbacks: one is built
	// per concurrently outstanding transfer, not per transfer, carved
	// out of arrivalSlab.
	freeArrivals []*arrival
	arrivalSlab  []arrival
	// TaskOverhead is a fixed per-task runtime overhead in seconds
	// (submission, scheduling); StarPU-scale default.
	TaskOverhead float64
	makespan     float64
	// fault-injection state (see faults.go).
	injections []injection
	recovered  int
}

// commState is one (producer, destination) transfer.
type commState struct {
	producer int32
	dest     int32
	next     int32 // the producer's next transfer (index+1, 0 ends)
	// waiters is a FIFO list of consumers (index+1 into
	// Runtime.waiters, 0 when empty).
	wHead, wTail int32
	arrived      bool
	void         bool // invalidated by a fault (dead destination or rolled-back producer)
}

// waiter is one consumer waiting on a transfer.
type waiter struct {
	task int32
	next int32
}

// arrival is a reusable transfer-completion callback: fire is built once
// and serves whichever transfer the arrival is currently lent to.
type arrival struct {
	comm int32
	fire func()
}

// recordSlab is how many transfer records one allocation holds.
const recordSlab = 64

// queueCap is the ready-queue capacity each node starts with, carved
// out of one allocation for the whole runtime.
const queueCap = 32

// New creates a runtime over the engine, node specs and network.
func New(eng *des.Engine, nodes []NodeSpec, net simnet.Network) *Runtime {
	rt := &Runtime{
		eng:          eng,
		net:          net,
		nodes:        make([]nodeState, len(nodes)),
		TaskOverhead: 2e-5,
	}
	rt.own.places = len(nodes)
	rt.g = &rt.own
	nUnits, nWords := 0, 0
	for _, spec := range nodes {
		c := cpuUnits(spec)
		nUnits += c + len(spec.GPUSpeeds)
		nWords += words(c) + words(len(spec.GPUSpeeds))
	}
	units := make([]unit, nUnits)
	free := make([]uint64, nWords)
	queues := make([]readyItem, 2*queueCap*len(nodes))
	for i, spec := range nodes {
		ns := &rt.nodes[i]
		ns.factor = 1
		cores := cpuUnits(spec)
		coreSpeed := 0.0
		if cores > 0 {
			coreSpeed = spec.CPUSpeed / float64(cores)
		}
		ns.cpus, units = units[:cores:cores], units[cores:]
		for c := range ns.cpus {
			ns.cpus[c] = unit{speed: coreSpeed, node: int32(i), slot: int32(c), rt: rt}
		}
		ng := len(spec.GPUSpeeds)
		ns.gpus, units = units[:ng:ng], units[ng:]
		maxGPU := 0.0
		for g, s := range spec.GPUSpeeds {
			ns.gpus[g] = unit{speed: s, isGPU: true, node: int32(i), slot: int32(g), rt: rt}
			if s > maxGPU {
				maxGPU = s
			}
		}
		ns.anyQ, queues = queues[:0:queueCap], queues[queueCap:]
		ns.cpuOnlyQ, queues = queues[:0:queueCap], queues[queueCap:]
		ns.cpuFree, free = allFree(free, cores)
		ns.gpuFree, free = allFree(free, ng)
		ns.nFreeCPU, ns.nFreeGPU = cores, ng
		if maxGPU > 0 && coreSpeed > 0 {
			ns.cpuPull = int(maxGPU / coreSpeed)
		}
		ns.hasCPU = coreSpeed > 0
	}
	return rt
}

// cpuUnits is the number of CPU worker units a node spec exposes.
func cpuUnits(spec NodeSpec) int {
	if spec.CPUSpeed <= 0 {
		return 0
	}
	if spec.CPUCores < 1 {
		return 1
	}
	return spec.CPUCores
}

func words(n int) int { return (n + 63) / 64 }

// allFree carves a bitset of n set bits off the front of slab.
func allFree(slab []uint64, n int) (set, rest []uint64) {
	w := words(n)
	set, rest = slab[:w:w], slab[w:]
	for k := 0; k < n; k++ {
		set[k/64] |= 1 << (k % 64)
	}
	return set, rest
}

// lowestFree returns the lowest set bit of a non-empty bitset.
func lowestFree(set []uint64) int {
	for w, x := range set {
		if x != 0 {
			return w*64 + bits.TrailingZeros64(x)
		}
	}
	panic("taskrt: no idle unit")
}

// SetObserver installs a task lifecycle observer (pass nil to remove).
func (r *Runtime) SetObserver(o Observer) { r.obs = o }

// NewTask declares a task assigned to a node. The task becomes ready when
// all dependencies declared through AddDep are satisfied; tasks with no
// dependencies are released when Run starts.
func (r *Runtime) NewTask(label, kind string, flops float64, node int, cpuOnly bool, priority int64) *Task {
	r.ownGraph()
	var t *Task
	if r.own.frozen {
		// Run froze the graph: a task declared after it can take no
		// dependencies (AddDep panics).
		t = r.own.addAfterFreeze(NewName(label), kind, flops, node, cpuOnly, priority)
	} else {
		t = r.own.Add(NewName(label), kind, flops, node, cpuOnly, priority)
	}
	t.Label = label
	r.tasks = append(r.tasks, t)
	r.nPending++
	return t
}

// AddDep declares that consumer needs producer's output of the given
// size. If the two tasks live on different nodes the bytes are moved by
// an asynchronous transfer once the producer completes (deduplicated per
// destination node).
func (r *Runtime) AddDep(consumer, producer *Task, bytes float64) {
	r.ownGraph()
	r.own.AddDep(consumer, producer, bytes)
}

func (r *Runtime) ownGraph() {
	if r.g != &r.own {
		panic("taskrt: adding to a runtime that runs a submitted graph")
	}
}

// Submit instantiates a frozen template graph on a runtime with no
// tasks: every task of g is copied, with its place p resolved to node
// nodeOf[p]. The graph's CSR arrays are shared, read-only, so any number
// of runtimes may Submit the same graph concurrently.
func (r *Runtime) Submit(g *Graph, nodeOf []int) {
	if !g.frozen {
		panic("taskrt: submitting an unfrozen graph")
	}
	if len(r.tasks) > 0 || r.g != &r.own {
		panic("taskrt: submitting to a runtime that already has tasks")
	}
	if len(nodeOf) != g.places {
		panic(fmt.Sprintf("taskrt: %d placements for %d places", len(nodeOf), g.places))
	}
	for p, n := range nodeOf {
		if n < 0 || n >= len(r.nodes) {
			panic(fmt.Sprintf("taskrt: place %d on unknown node %d", p, n))
		}
	}
	n := g.n
	slab := make([]Task, n)
	off := 0
	for _, s := range g.slabs {
		off += copy(slab[off:], s)
	}
	r.tasks = make([]*Task, n)
	for i := range slab {
		t := &slab[i]
		t.Node = nodeOf[t.Node]
		r.tasks[i] = t
	}
	r.g = g
	r.nPending = n
}

// Run releases root tasks, drives the engine until the DAG drains, and
// returns the makespan. It panics if tasks remain blocked (a dependency
// cycle or an unconnected transfer), which would indicate a builder bug.
func (r *Runtime) Run() float64 {
	r.g.Freeze()
	for _, inj := range r.injections {
		inj := inj
		r.eng.Schedule(inj.at, func() { r.apply(inj) })
	}
	if r.obs != nil {
		r.nameAll()
	}
	for _, t := range r.tasks {
		if t.nDeps == 0 {
			r.push(t)
		}
	}
	for node := range r.nodes {
		r.dispatch(node)
	}
	r.eng.Run()
	if r.nPending != 0 {
		panic(fmt.Sprintf("taskrt: %d tasks never became ready (cycle?)", r.nPending))
	}
	return r.makespan
}

// nameAll renders the deferred task and unit names an observer sees.
func (r *Runtime) nameAll() {
	for _, t := range r.tasks {
		if t.Label == "" {
			t.Label = r.g.label(t.ID)
		}
	}
	for i := range r.nodes {
		ns := &r.nodes[i]
		for c := range ns.cpus {
			ns.cpus[c].name = fmt.Sprintf("n%d.cpu%d", i, c)
		}
		for g := range ns.gpus {
			ns.gpus[g].name = fmt.Sprintf("n%d.gpu%d", i, g)
		}
	}
}

// Makespan returns the completion time of the last task (valid after Run).
func (r *Runtime) Makespan() float64 { return r.makespan }

// NumTasks returns the number of declared tasks.
func (r *Runtime) NumTasks() int { return len(r.tasks) }

// push puts a ready task on its node's queue (without dispatching, so
// that same-instant batches are priority-ordered before units grab work).
func (r *Runtime) push(t *Task) {
	ns := &r.nodes[t.Node]
	it := readyItem{prio: t.Priority, id: int32(t.ID)}
	if t.CPUOnly {
		ns.cpuOnlyQ.push(it)
	} else {
		ns.anyQ.push(it)
	}
}

// dispatch greedily assigns ready tasks to free units on a node. GPU
// units (the fast ones) drain the GPU-capable queue first, lowest idle
// unit first; CPU units then serve whichever queue has the
// highest-priority ready task. Units never free up during a dispatch,
// so one pass reaches the fixpoint.
func (r *Runtime) dispatch(node int) {
	ns := &r.nodes[node]
	if ns.dead {
		return
	}
	for ns.nFreeGPU > 0 && len(ns.anyQ) > 0 {
		r.execute(r.tasks[ns.anyQ.pop()], &ns.gpus[lowestFree(ns.gpuFree)])
	}
	for ns.nFreeCPU > 0 {
		// CPU units always serve CPU-only work; they steal GPU-capable
		// work only past the dmda threshold: with a GPU cpuPull times
		// faster, stealing pays off once the queue is at least cpuPull
		// deep (the queue wait exceeds the slower CPU execution).
		canSteal := len(ns.anyQ) > 0 && len(ns.anyQ) >= ns.cpuPull
		var q *readyQueue
		switch {
		case len(ns.cpuOnlyQ) == 0 && !canSteal:
			return
		case len(ns.cpuOnlyQ) == 0:
			q = &ns.anyQ
		case !canSteal || ns.cpuOnlyQ[0].prio >= ns.anyQ[0].prio:
			q = &ns.cpuOnlyQ
		default:
			q = &ns.anyQ
		}
		r.execute(r.tasks[q.pop()], &ns.cpus[lowestFree(ns.cpuFree)])
	}
}

// setIdle marks a unit idle (true) or busy in its node's free set.
func (r *Runtime) setIdle(u *unit, idle bool) {
	ns := &r.nodes[u.node]
	set, n := ns.cpuFree, &ns.nFreeCPU
	if u.isGPU {
		set, n = ns.gpuFree, &ns.nFreeGPU
	}
	w, b := u.slot/64, uint64(1)<<(u.slot%64)
	if idle {
		set[w] |= b
		*n++
	} else {
		set[w] &^= b
		*n--
	}
}

// execute runs a task on a unit in simulated time.
func (r *Runtime) execute(t *Task, u *unit) {
	r.setIdle(u, false)
	u.cur = t
	t.running = true
	t.started = r.eng.Now()
	if r.obs != nil {
		r.obs.TaskStarted(t, u.name, t.started)
	}
	dur := r.TaskOverhead
	if u.speed > 0 {
		dur += t.Flops / (u.speed * r.nodes[t.Node].factor)
	}
	u.ev = r.eng.AfterHandler(dur, u)
}

// finish completes the unit's task (also the rescheduling target when a
// fault rescales in-flight work).
func (r *Runtime) finish(u *unit) {
	t := u.cur
	now := r.eng.Now()
	t.finished = now
	t.done = true
	t.running = false
	t.pendingDeps = nil
	u.cur, u.ev = nil, nil
	if now > r.makespan {
		r.makespan = now
	}
	if r.obs != nil {
		r.obs.TaskFinished(t, u.name, now)
	}
	r.nPending--
	r.setIdle(u, true)
	r.complete(t)
	r.dispatch(t.Node)
}

// complete propagates a finished task to its consumers, starting network
// transfers for remote ones. Newly ready consumers are pushed first and
// their nodes dispatched afterwards, in first-touch order, so priorities
// order same-instant releases and no map order reaches the event queue.
func (r *Runtime) complete(t *Task) {
	succ := &r.g.succ
	for k := succ.off[t.ID]; k < succ.off[t.ID+1]; k++ {
		c := r.tasks[succ.to[k]]
		bytes := succ.bytes[k]
		if c.done {
			// Only possible after fault recovery: the producer re-ran
			// for another consumer's sake.
			continue
		}
		if c.Node == t.Node || bytes <= 0 {
			if r.resolve(c, t.ID) {
				r.touch(c.Node)
			}
			continue
		}
		if ci := r.findComm(t, c.Node); ci >= 0 {
			if r.comms[ci].arrived {
				if r.resolve(c, t.ID) {
					r.touch(c.Node)
				}
			} else {
				r.addWaiter(ci, c)
			}
			continue
		}
		r.startTransfer(t, c, bytes)
	}
	for _, node := range r.touched {
		r.nodes[node].touched = false
		r.dispatch(int(node))
	}
	r.touched = r.touched[:0]
}

// touch queues a node for dispatch at the end of complete.
func (r *Runtime) touch(node int) {
	if ns := &r.nodes[node]; !ns.touched {
		ns.touched = true
		r.touched = append(r.touched, int32(node))
	}
}

// findComm returns the live transfer of q's output to dest, or -1.
func (r *Runtime) findComm(q *Task, dest int) int32 {
	for i := q.comms; i != 0; i = r.comms[i-1].next {
		if cs := &r.comms[i-1]; int(cs.dest) == dest && !cs.void {
			return i - 1
		}
	}
	return -1
}

// startTransfer moves q's output to consumer c's node, with c as its
// first waiter.
func (r *Runtime) startTransfer(q, c *Task, bytes float64) {
	r.comms = append(r.comms, commState{producer: int32(q.ID), dest: int32(c.Node), next: q.comms})
	ci := int32(len(r.comms) - 1)
	q.comms = ci + 1
	r.addWaiter(ci, c)
	var a *arrival
	if n := len(r.freeArrivals); n > 0 {
		a = r.freeArrivals[n-1]
		r.freeArrivals = r.freeArrivals[:n-1]
	} else {
		if len(r.arrivalSlab) == 0 {
			r.arrivalSlab = make([]arrival, recordSlab)
		}
		a = &r.arrivalSlab[0]
		r.arrivalSlab = r.arrivalSlab[1:]
		a.fire = func() { r.arrive(a) }
	}
	a.comm = ci
	r.net.Transfer(q.Node, c.Node, bytes, a.fire)
}

// addWaiter appends c to a transfer's waiters.
func (r *Runtime) addWaiter(ci int32, c *Task) {
	w := r.freeWaiter
	if w != 0 {
		r.freeWaiter = r.waiters[w-1].next
		r.waiters[w-1] = waiter{task: int32(c.ID)}
	} else {
		r.waiters = append(r.waiters, waiter{task: int32(c.ID)})
		w = int32(len(r.waiters))
	}
	cs := &r.comms[ci]
	if cs.wTail == 0 {
		cs.wHead = w
	} else {
		r.waiters[cs.wTail-1].next = w
	}
	cs.wTail = w
}

// arrive completes a transfer: it releases the waiting consumers unless
// a fault voided the transfer in the meantime, and recycles the
// callback.
func (r *Runtime) arrive(a *arrival) {
	ci := a.comm
	r.freeArrivals = append(r.freeArrivals, a)
	cs := &r.comms[ci]
	if cs.void {
		return
	}
	cs.arrived = true
	w, producer, dest := cs.wHead, int(cs.producer), int(cs.dest)
	cs.wHead, cs.wTail = 0, 0
	ready := false
	for w != 0 {
		wt := r.waiters[w-1]
		r.waiters[w-1].next = r.freeWaiter
		r.freeWaiter = w
		if r.resolve(r.tasks[wt.task], producer) {
			ready = true
		}
		w = wt.next
	}
	if ready {
		r.dispatch(dest)
	}
}

// resolve decrements a consumer's dependency count, pushing it on its
// node's ready queue when it becomes ready. It reports whether the task
// became ready. After a fault rebuild the per-producer pending map
// guards against double-resolving a dependency a cached data copy
// already satisfied.
func (r *Runtime) resolve(t *Task, producer int) bool {
	if t.done || t.running {
		return false
	}
	if t.pendingDeps != nil {
		if t.pendingDeps[producer] == 0 {
			return false
		}
		t.pendingDeps[producer]--
	}
	t.nDeps--
	if t.nDeps == 0 {
		r.push(t)
		return true
	}
	return false
}

// readyItem is a queued task: its priority and ID, kept inline so the
// heap compares without touching the task slab.
type readyItem struct {
	prio int64
	id   int32
}

// readyQueue is a max-heap on priority (ties: lower ID first, keeping
// submission order — StarPU's prio queue behaviour).
type readyQueue []readyItem

func (q readyQueue) less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio > q[j].prio
	}
	return q[i].id < q[j].id
}

func (q *readyQueue) push(it readyItem) {
	*q = append(*q, it)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop removes the highest-priority task and returns its ID.
func (q *readyQueue) pop() int32 {
	h := *q
	n := len(h) - 1
	top := h[0].id
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h
	return top
}
