package taskrt

import (
	"fmt"
)

// This file implements fault injection for the runtime: node crashes
// with owner-computes recovery of the lost data partition, and compute
// slowdowns that rescale in-flight work. Faults are declared before Run
// and strike at simulated times, mirroring a resource manager's failure
// notifications under StarPU/MPI.

// injection is one scheduled fault.
type injection struct {
	at     float64
	node   int
	factor float64
	crash  bool
}

// InjectCrash schedules a permanent crash of node at simulated time at.
// When it strikes, tasks running on the node are aborted, every
// unfinished task it owns is remapped onto the survivors
// (owner-computes: the lost data partition changes owner), and completed
// tasks whose output lived only on the dead node are rolled back for
// re-execution. Panics if the node index is unknown.
func (r *Runtime) InjectCrash(node int, at float64) {
	if node < 0 || node >= len(r.nodes) {
		panic(fmt.Sprintf("taskrt: crash on unknown node %d", node))
	}
	if at < 0 {
		at = 0
	}
	r.injections = append(r.injections, injection{at: at, node: node, crash: true})
}

// InjectSpeedFactor schedules a compute-speed change of node at
// simulated time at: every unit on the node runs at factor times its
// nominal speed from then on, and work in flight is rescaled mid-task.
// Factor 1 restores nominal speed (the tail of a transient slowdown).
func (r *Runtime) InjectSpeedFactor(node int, at, factor float64) {
	if node < 0 || node >= len(r.nodes) {
		panic(fmt.Sprintf("taskrt: slowdown on unknown node %d", node))
	}
	if factor <= 0 {
		panic(fmt.Sprintf("taskrt: non-positive speed factor %v", factor))
	}
	if at < 0 {
		at = 0
	}
	r.injections = append(r.injections, injection{at: at, node: node, factor: factor})
}

// RecoveredTasks returns how many task executions were aborted or rolled
// back by faults and re-run on surviving nodes (valid after Run).
func (r *Runtime) RecoveredTasks() int { return r.recovered }

// AliveNodes returns the number of nodes that have not crashed.
func (r *Runtime) AliveNodes() int {
	n := 0
	for i := range r.nodes {
		if !r.nodes[i].dead {
			n++
		}
	}
	return n
}

// apply executes one injection at its simulated time.
func (r *Runtime) apply(inj injection) {
	if inj.crash {
		r.crash(inj.node)
	} else {
		r.setSpeedFactor(inj.node, inj.factor)
	}
}

// setSpeedFactor changes a node's compute speed mid-flight: running
// tasks keep their accumulated progress and their remaining work is
// rescaled by the speed ratio.
func (r *Runtime) setSpeedFactor(node int, factor float64) {
	ns := &r.nodes[node]
	//lint:allow floatsafe factors are exact fault-plan constants; the early-out wants bitwise sameness, not closeness
	if ns.dead || factor == ns.factor {
		return
	}
	old := ns.factor
	ns.factor = factor
	for _, units := range [2][]unit{ns.cpus, ns.gpus} {
		for i := range units {
			u := &units[i]
			if u.cur == nil || u.speed <= 0 {
				continue
			}
			rem := u.ev.Time() - r.eng.Now()
			if rem < 0 {
				rem = 0
			}
			r.eng.Cancel(u.ev)
			u.ev = r.eng.AfterHandler(rem*old/factor, u)
		}
	}
}

// crash kills a node: abort, remap, roll back the lost data partition,
// rebuild the dependency state and keep going on the survivors.
func (r *Runtime) crash(node int) {
	ns := &r.nodes[node]
	if ns.dead {
		return
	}
	ns.dead = true
	var surv, survCPU []int
	for i := range r.nodes {
		if n2 := &r.nodes[i]; !n2.dead {
			surv = append(surv, i)
			if n2.hasCPU {
				survCPU = append(survCPU, i)
			}
		}
	}
	if len(surv) == 0 {
		panic("taskrt: every node crashed; nothing left to recover on")
	}
	// Owner-computes remap: the dead node's partition is dealt round-
	// robin (by task ID, hence deterministically) over the survivors;
	// CPU-only work goes to survivors that still have CPU units.
	remap := func(t *Task) int {
		pool := surv
		if t.CPUOnly && len(survCPU) > 0 {
			pool = survCPU
		}
		return pool[t.ID%len(pool)]
	}

	// Abort work in flight on the dead node.
	for _, units := range [2][]unit{ns.cpus, ns.gpus} {
		for i := range units {
			u := &units[i]
			if u.cur == nil {
				continue
			}
			r.eng.Cancel(u.ev)
			u.cur.running = false
			u.cur, u.ev = nil, nil
			r.setIdle(u, true)
			r.recovered++
		}
	}

	// Re-home every unfinished task owned by a dead node.
	for _, t := range r.tasks {
		if !t.done && r.nodes[t.Node].dead {
			t.Node = remap(t)
		}
	}

	// Lost-data fixpoint: a completed task whose output lived on a dead
	// node and is still needed by an unfinished consumer (with no cached
	// copy on the consumer's node) must re-execute on its new owner.
	// Rolling one producer back can orphan its own inputs, so iterate to
	// a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, q := range r.tasks {
			if !q.done || !r.nodes[q.Node].dead || !r.outputNeeded(q) {
				continue
			}
			q.done = false
			q.running = false
			q.Node = remap(q)
			r.nPending++
			r.recovered++
			changed = true
		}
	}

	r.rebuild()
}

// outputNeeded reports whether a completed task's output bytes are still
// required by an unfinished consumer that cannot read them locally or
// from a cached remote copy.
func (r *Runtime) outputNeeded(q *Task) bool {
	succ := &r.g.succ
	for k := succ.off[q.ID]; k < succ.off[q.ID+1]; k++ {
		c := r.tasks[succ.to[k]]
		if c.done || succ.bytes[k] <= 0 {
			continue
		}
		if !r.dataAt(q, c.Node) {
			return true
		}
	}
	return false
}

// dataAt reports whether q's output is present on node: either q ran
// there, or a transfer already delivered it (the MSI cache copy survives
// even if q is later rolled back).
func (r *Runtime) dataAt(q *Task, node int) bool {
	if q.done && q.Node == node {
		return true
	}
	ci := r.findComm(q, node)
	return ci >= 0 && r.comms[ci].arrived
}

// rebuild reconstructs the dependency counters, ready queues and
// transfer fabric after a crash changed task placement, then redispatches
// the survivors.
func (r *Runtime) rebuild() {
	// Invalidate transfers a fault made meaningless: data heading to a
	// dead node, or in flight from a producer that was rolled back.
	for i := range r.comms {
		cs := &r.comms[i]
		if cs.void {
			continue
		}
		if r.nodes[cs.dest].dead || (!cs.arrived && !r.tasks[cs.producer].done) {
			cs.void = true
			continue
		}
		if !cs.arrived {
			cs.wHead, cs.wTail = 0, 0 // re-collected below
		}
	}
	// Reset the ready queues; they are repopulated from scratch.
	for i := range r.nodes {
		r.nodes[i].anyQ = r.nodes[i].anyQ[:0]
		r.nodes[i].cpuOnlyQ = r.nodes[i].cpuOnlyQ[:0]
	}
	// Recount outstanding dependencies from the reverse edges and
	// restart the data movements re-homed consumers still need.
	prod := &r.g.prod
	for _, c := range r.tasks {
		if c.done || c.running {
			continue
		}
		c.nDeps = 0
		c.pendingDeps = map[int]int{}
		for k := prod.off[c.ID]; k < prod.off[c.ID+1]; k++ {
			q, bytes := r.tasks[prod.to[k]], prod.bytes[k]
			if q.done && (bytes <= 0 || r.dataAt(q, c.Node)) {
				continue
			}
			c.nDeps++
			c.pendingDeps[q.ID]++
			if q.done && bytes > 0 {
				r.fetch(q, c, bytes)
			}
		}
		if c.nDeps == 0 {
			r.push(c)
		}
	}
	for i := range r.nodes {
		if !r.nodes[i].dead {
			r.dispatch(i)
		}
	}
}

// fetch joins or starts the transfer of q's (already produced) output to
// c's node.
func (r *Runtime) fetch(q, c *Task, bytes float64) {
	if ci := r.findComm(q, c.Node); ci >= 0 {
		// Still in flight from before the fault (arrived copies were
		// counted as satisfied and never reach here).
		r.addWaiter(ci, c)
		return
	}
	r.startTransfer(q, c, bytes)
}
