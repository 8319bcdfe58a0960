package simnet

import "phasetune/internal/des"

// Fast is the frozen-rate network approximation: each transfer gets the
// fair-share rate implied by the instantaneous flow counts on its path at
// start time and keeps it until completion. It is O(1) per transfer and is
// used for the large sweeps of Figures 5, 6 and 8, where the exact fluid
// model would dominate runtime. Contention trends (NIC serialization,
// backbone saturation as more nodes communicate) are preserved.
type Fast struct {
	eng     *des.Engine
	topo    Topology
	upCnt   []int
	downCnt []int
	bbCnt   int
	// free recycles completion records: one is built per concurrently
	// outstanding transfer, not per transfer, carved out of slab.
	free []*fastTransfer
	slab []fastTransfer
}

// fastTransfer is an in-flight transfer and, as a des.Handler, its own
// completion event.
type fastTransfer struct {
	f        *Fast
	src, dst int
	done     func()
}

// Fire releases the transfer's share of its path, recycles the record
// and completes the transfer.
func (tr *fastTransfer) Fire() {
	f := tr.f
	f.upCnt[tr.src]--
	f.downCnt[tr.dst]--
	f.bbCnt--
	done := tr.done
	tr.done = nil
	f.free = append(f.free, tr)
	done()
}

// NewFast builds a frozen-rate network over n nodes.
func NewFast(eng *des.Engine, n int, topo Topology) *Fast {
	return &Fast{
		eng:     eng,
		topo:    topo,
		upCnt:   make([]int, n),
		downCnt: make([]int, n),
	}
}

// Transfer implements Network.
func (f *Fast) Transfer(src, dst int, bytes float64, done func()) {
	if src == dst {
		f.eng.After(localCopyLatency, done)
		return
	}
	f.upCnt[src]++
	f.downCnt[dst]++
	f.bbCnt++
	rate := f.topo.NICBandwidth / float64(f.upCnt[src])
	if r := f.topo.NICBandwidth / float64(f.downCnt[dst]); r < rate {
		rate = r
	}
	if f.topo.BackboneBandwidth > 0 {
		if r := f.topo.BackboneBandwidth / float64(f.bbCnt); r < rate {
			rate = r
		}
	}
	dur := f.topo.Latency + bytes/rate
	var tr *fastTransfer
	if n := len(f.free); n > 0 {
		tr = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		if len(f.slab) == 0 {
			f.slab = make([]fastTransfer, 64)
		}
		tr = &f.slab[0]
		f.slab = f.slab[1:]
		tr.f = f
	}
	tr.src, tr.dst, tr.done = src, dst, done
	f.eng.AfterHandler(dur, tr)
}
