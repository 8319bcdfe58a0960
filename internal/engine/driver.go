package engine

import (
	"fmt"
	"sync"

	"phasetune/internal/core"
)

// Driver wraps a core.Strategy behind the concurrency contract
// documented on the interface: every Next/Observe runs under one mutex,
// and batch proposals are produced atomically. On top of the plain
// serialization it implements speculative batching with the
// constant-liar heuristic (Ginsbourger et al.'s CL for batch Bayesian
// optimization): to keep K evaluations in flight the driver asks the
// strategy for K actions in a row, feeding a provisional "lie"
// observation after each proposal so the next one diversifies instead
// of repeating. The lie is the cached deterministic makespan when the
// engine already knows it (a perfect lie), else the running mean of
// real observations (CL-mean). Strategies in this repository accumulate
// history rather than refit from a replaceable set, so lies are not
// retracted when truth arrives — the true observation is simply fed as
// well, and the CL-mean bias this leaves is the documented price of
// speculation (GP/UCB strategies absorb it as extra replicates; the
// state-machine strategies DC/Brent ignore off-script observations).
type Driver struct {
	mu  sync.Mutex
	s   core.Strategy
	sum float64 // running sum of real observations (for CL-mean)
	n   int
}

// NewDriver wraps s.
func NewDriver(s core.Strategy) *Driver {
	return &Driver{s: s}
}

// Name returns the wrapped strategy's name.
func (d *Driver) Name() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.s.Name()
}

// Observe feeds back a real measured duration.
func (d *Driver) Observe(action int, duration float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sum += duration
	d.n++
	d.s.Observe(action, duration)
}

// NextBatch atomically proposes up to k actions for speculative
// parallel evaluation. hint, when non-nil, supplies a known
// deterministic makespan for an action (the engine passes the cache's
// Peek). The batch stops early when the strategy has produced a
// proposal but no credible lie exists yet (no hint and no real
// observation to average) — speculating on fabricated values would
// poison the surrogate. The lies actually fed (one after every
// proposal but the last) are returned alongside the proposals so the
// journal can capture them: lie values depend on cache timing, so a
// deterministic replay must re-feed the recorded values rather than
// recompute them.
func (d *Driver) NextBatch(k int, hint func(action int) (float64, bool)) (actions []int, lies []float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if k < 1 {
		k = 1
	}
	actions = make([]int, 0, k)
	for i := 0; i < k; i++ {
		a := d.s.Next()
		actions = append(actions, a)
		if i == k-1 {
			break
		}
		lie, ok := 0.0, false
		if hint != nil {
			lie, ok = hint(a)
		}
		if !ok && d.n > 0 {
			lie, ok = d.sum/float64(d.n), true
		}
		if !ok {
			break
		}
		d.s.Observe(a, lie)
		lies = append(lies, lie)
	}
	return actions, lies
}

// Replay re-issues a journaled proposal sequence during recovery: for
// each recorded action the strategy is asked for its next proposal
// (which determinism obliges to match the record — a mismatch is
// corruption), and after proposal i the recorded lie i, if any, is fed
// back exactly as the live NextBatch did. Real observations are not
// fed here; the recovery loop feeds them through Observe so the
// CL-mean accounting is rebuilt identically.
func (d *Driver) Replay(actions []int, lies []float64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, want := range actions {
		a := d.s.Next()
		if a != want {
			return fmt.Errorf("engine: replay diverged: strategy proposed %d, journal recorded %d", a, want)
		}
		if i < len(lies) {
			d.s.Observe(a, lies[i])
		}
	}
	return nil
}
