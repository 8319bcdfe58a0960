package engine

import (
	"fmt"
	"sync"

	"phasetune/internal/harness"
	"phasetune/internal/obsv"
	"phasetune/internal/platform"
	"phasetune/internal/stats"
)

// Session is one client's closed tuning loop hosted by the engine: a
// strategy behind an async driver, an evaluator for its scenario, and
// the session-local observation-noise stream. Steps of one session are
// serialized by its mutex (the loop is sequential by definition — Next
// depends on every prior Observe); different sessions run concurrently
// and meet only in the shared cache.
type Session struct {
	id     string
	driver *Driver
	ev     *harness.Evaluator
	seed   int64
	// props counts this session's strategy proposals (nil-safe counter;
	// nil when the engine runs without telemetry).
	props *obsv.Counter

	mu        sync.Mutex
	noise     *stats.RNG
	epoch     int
	actions   []int
	durations []float64
	sims      []float64 // deterministic makespans underlying each step
	total     float64

	// jl is the session's write-ahead journal (nil when the engine runs
	// without durability). broken marks a session whose journal append
	// failed: its in-memory state may be ahead of disk, so it fails
	// closed — further operations are rejected and the authoritative
	// state is whatever a restart recovers from the journal.
	jl     *journal
	broken bool

	// gen is the session's generation (fencing token). Fresh sessions
	// start at 1; each supervised promotion bumps it, and the replica
	// store rejects appends stamped with an older generation, which is
	// what fences a deposed owner out after failover. Guarded by mu.
	gen uint64
	// repl is the session's replication state (nil until the planner
	// assigns a follower, or when replication is off). Guarded by mu.
	repl *replicator

	// idem maps client idempotency keys to the operations they
	// committed (see idempotency.go). Keys ride in the journal records,
	// so recovery rebuilds this map and replayed responses survive a
	// crash. Guarded by mu; lazily allocated.
	idem map[string]idemEntry
}

// SessionConfig describes a session to create.
type SessionConfig struct {
	// ID, when non-empty, is the client-assigned session id (the shard
	// router mints these so a session's placement is a pure function of
	// its id). Must satisfy ValidateSessionID; creating a second session
	// with a live id fails. Empty lets the engine mint "s<n>".
	ID string
	// ScenarioKey selects a paper scenario (a..p); Scenario overrides it
	// with an explicit platform description.
	ScenarioKey string
	Scenario    *platform.Scenario
	// Strategy is a harness.NewStrategy name (default GP-discontinuous).
	Strategy string
	// Seed drives the observation-noise stream; with the same seed a
	// session replays harness.RunOnline bit-for-bit.
	Seed int64
	// Tiles / Exact / GenNodes mirror harness.SimOptions.
	Tiles    int
	Exact    bool
	GenNodes int
}

// maxSessionIDLen bounds client-assigned session ids (ids become
// journal file names and ride in every URL).
const maxSessionIDLen = 64

// ValidateSessionID checks a client-assigned session id: non-empty,
// bounded, restricted to [A-Za-z0-9._-], and not starting with a dot
// (ids name journal files, so no path separators or dotfiles).
func ValidateSessionID(id string) error {
	if id == "" {
		return fmt.Errorf("engine: session id outside [1, %d] bytes", maxSessionIDLen)
	}
	if len(id) > maxSessionIDLen {
		return fmt.Errorf("engine: session id outside [1, %d] bytes", maxSessionIDLen)
	}
	if id[0] == '.' {
		return fmt.Errorf("engine: session id must not start with '.'")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("engine: session id holds invalid byte 0x%02x at %d", c, i)
		}
	}
	return nil
}

// StepResult is one completed tuning step.
type StepResult struct {
	Iter     int     `json:"iter"`
	Action   int     `json:"action"`
	Duration float64 `json:"duration"` // observed (noisy) duration, s
	Sim      float64 `json:"sim"`      // deterministic makespan, s
	CacheHit bool    `json:"cache_hit"`
}

// SessionResult summarizes a session so far.
type SessionResult struct {
	ID         string    `json:"id"`
	Strategy   string    `json:"strategy"`
	Scenario   string    `json:"scenario"`
	Epoch      int       `json:"epoch"`
	Iterations int       `json:"iterations"`
	Actions    []int     `json:"actions"`
	Durations  []float64 `json:"durations"`
	Total      float64   `json:"total"`
	// BestAction is the engine's answer: the action with the smallest
	// deterministic makespan among those the session evaluated.
	BestAction int     `json:"best_action"`
	BestSim    float64 `json:"best_sim"`
	// Regret is the cumulative deterministic regret against the best
	// evaluated action: sum(sim_i) - iterations*BestSim. Exact, noise-free
	// bookkeeping of the exploration price paid so far.
	Regret float64 `json:"regret"`
}

// result snapshots the session, trajectories included, under its lock.
func (s *Session) result() SessionResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := s.summary()
	res.Actions = append([]int(nil), s.actions...)
	res.Durations = append([]float64(nil), s.durations...)
	return res
}

// summary is the session's result without the Actions/Durations
// trajectories, which is what /metrics serves: it copies no history,
// so a scrape allocates the same however long the session ran. Under
// the session lock.
func (s *Session) summary() SessionResult {
	res := SessionResult{
		ID:         s.id,
		Strategy:   s.driver.Name(),
		Scenario:   s.ev.Scenario.Name,
		Epoch:      s.epoch,
		Iterations: len(s.actions),
		Total:      s.total,
	}
	if len(s.sims) > 0 {
		best, bestSim, sum := s.actions[0], s.sims[0], 0.0
		for i, v := range s.sims {
			sum += v
			//lint:allow floatsafe exact tie-break between identical cached sim values; lowest action wins deterministically
			if v < bestSim || (v == bestSim && s.actions[i] < best) {
				best, bestSim = s.actions[i], v
			}
		}
		res.BestAction, res.BestSim = best, bestSim
		res.Regret = sum - float64(len(s.sims))*bestSim
	}
	return res
}

// record appends one committed step under the session lock.
func (s *Session) record(action int, duration, sim float64) StepResult {
	s.actions = append(s.actions, action)
	s.durations = append(s.durations, duration)
	s.sims = append(s.sims, sim)
	s.total += duration
	return StepResult{
		Iter:     len(s.actions) - 1,
		Action:   action,
		Duration: duration,
		Sim:      sim,
	}
}

// observe turns a deterministic makespan into the observed duration by
// drawing the next sample of the session's sequential noise stream —
// the exact transformation RunOnline applies, which is what keeps the
// engine bit-for-bit compatible with the sequential harness. Must be
// called in commit order under the session lock.
func (s *Session) observe(sim float64) float64 {
	d := sim + s.noise.Normal(0, harness.NoiseSD)
	if d < 0.01 {
		d = 0.01
	}
	return d
}
