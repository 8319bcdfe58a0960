package simnet

import (
	"math"

	"phasetune/internal/des"
)

// link is a capacity-constrained resource in the fluid model.
type link struct {
	capacity float64
	flows    []*flow // in arrival order
	// progressive-filling scratch state, valid during recompute.
	residual float64
	active   int
}

// flow is an in-progress transfer in the fluid model.
type flow struct {
	remaining float64
	rate      float64
	updated   float64 // sim time of the last remaining/rate update
	path      [3]*link
	nPath     int
	frozen    bool // rate fixed in the current progressive filling
	done      func()
	ev        *des.Event
	f         *Fluid
	src, dst  int
}

// flowStart and flowEnd are a flow's latency-segment and completion
// events: des.Handlers over the flow record itself, so rescheduling a
// flow allocates nothing.
type (
	flowStart flow
	flowEnd   flow
)

func (s *flowStart) Fire() { s.f.begin((*flow)(s)) }
func (e *flowEnd) Fire()   { e.f.end((*flow)(e)) }

// Fluid is the exact max-min fair network model. Rates are recomputed by
// progressive filling whenever a flow starts or finishes, and completion
// events are rescheduled accordingly.
//
// Every iteration order is fixed — flows in arrival order, links in the
// order up[0..n), down[0..n), backbone — so bottleneck tie-breaks and
// the order completions are rescheduled in never depend on map order,
// and identical simulations are bit-identical.
type Fluid struct {
	eng   *des.Engine
	topo  Topology
	links []*link // up[0..n), down[0..n), then the backbone if any
	up    []*link
	down  []*link
	bb    *link
	flows []*flow // active flows in arrival order
	free  []*flow // finished flow records for reuse
}

// NewFluid builds a fluid network over n nodes.
func NewFluid(eng *des.Engine, n int, topo Topology) *Fluid {
	f := &Fluid{eng: eng, topo: topo}
	f.links = make([]*link, 0, 2*n+1)
	for i := 0; i < 2*n; i++ {
		f.links = append(f.links, &link{capacity: topo.NICBandwidth})
	}
	f.up, f.down = f.links[:n], f.links[n:2*n]
	if topo.BackboneBandwidth > 0 {
		f.bb = &link{capacity: topo.BackboneBandwidth}
		f.links = append(f.links, f.bb)
	}
	return f
}

// Transfer implements Network.
func (f *Fluid) Transfer(src, dst int, bytes float64, done func()) {
	if src == dst {
		f.eng.After(localCopyLatency, done)
		return
	}
	var fl *flow
	if n := len(f.free); n > 0 {
		fl = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		fl = &flow{f: f}
	}
	fl.src, fl.dst, fl.remaining, fl.rate, fl.done = src, dst, bytes, 0, done
	// The latency segment precedes the fluid segment.
	f.eng.AfterHandler(f.topo.Latency, (*flowStart)(fl))
}

// begin enters a flow into the fluid segment once its latency elapsed.
func (f *Fluid) begin(fl *flow) {
	fl.updated = f.eng.Now()
	fl.path[0], fl.path[1], fl.nPath = f.up[fl.src], f.down[fl.dst], 2
	if f.bb != nil {
		fl.path[2], fl.nPath = f.bb, 3
	}
	f.flows = append(f.flows, fl)
	for _, l := range fl.path[:fl.nPath] {
		l.flows = append(l.flows, fl)
	}
	f.recompute()
}

// ActiveFlows returns the number of in-progress fluid flows (excludes
// transfers still in their latency segment).
func (f *Fluid) ActiveFlows() int { return len(f.flows) }

// end removes the flow and fires its completion callback.
func (f *Fluid) end(fl *flow) {
	f.flows = remove(f.flows, fl)
	for _, l := range fl.path[:fl.nPath] {
		l.flows = remove(l.flows, fl)
	}
	fl.remaining = 0
	fl.ev = nil
	done := fl.done
	fl.done = nil
	fl.path = [3]*link{}
	f.free = append(f.free, fl)
	f.recompute()
	done()
}

// remove deletes fl from s, keeping the others in order.
func remove(s []*flow, fl *flow) []*flow {
	for i, x := range s {
		if x == fl {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = nil
			return s[:len(s)-1]
		}
	}
	return s
}

// recompute updates every flow's progress, solves the max-min share
// problem by progressive filling, and reschedules completion events.
func (f *Fluid) recompute() {
	now := f.eng.Now()
	// Progress accounting at the old rates.
	for _, fl := range f.flows {
		fl.remaining -= fl.rate * (now - fl.updated)
		if fl.remaining < 0 {
			fl.remaining = 0
		}
		fl.updated = now
		fl.frozen = false
	}
	// Progressive filling.
	for _, l := range f.links {
		l.residual, l.active = l.capacity, len(l.flows)
	}
	for nFrozen := 0; nFrozen < len(f.flows); {
		// Find the link with the smallest fair share among links that
		// still carry unfrozen flows; the first in link order wins ties.
		var bottleneck *link
		share := math.Inf(1)
		for _, l := range f.links {
			if l.active == 0 {
				continue
			}
			if cand := l.residual / float64(l.active); cand < share {
				share, bottleneck = cand, l
			}
		}
		if bottleneck == nil {
			break
		}
		if share < 0 {
			share = 0
		}
		for _, fl := range bottleneck.flows {
			if fl.frozen {
				continue
			}
			fl.frozen = true
			nFrozen++
			fl.rate = share
			for _, l := range fl.path[:fl.nPath] {
				l.residual -= share
				if l.residual < 0 {
					l.residual = 0
				}
				l.active--
			}
		}
	}
	// Reschedule completions.
	for _, fl := range f.flows {
		f.eng.Cancel(fl.ev)
		var eta float64
		if fl.remaining <= 1e-12 {
			eta = 0
		} else if fl.rate <= 0 {
			// Starved flow: no event; a later recompute will revive it.
			fl.ev = nil
			continue
		} else {
			eta = fl.remaining / fl.rate
		}
		fl.ev = f.eng.AfterHandler(eta, (*flowEnd)(fl))
	}
}
