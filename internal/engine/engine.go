package engine

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phasetune/internal/core"
	"phasetune/internal/harness"
	"phasetune/internal/obsv"
	"phasetune/internal/platform"
	"phasetune/internal/stats"
	"phasetune/internal/trace"
)

// Engine is the concurrent tuning service: it owns the evaluation pool,
// the shared cross-session cache, the session registry and (when
// configured) the per-session write-ahead journals that make sessions
// survive a process crash.
type Engine struct {
	pool  *Pool
	cache *Cache

	journalDir string // "" disables durability
	snapEvery  int
	tel        *obsv.Telemetry // nil disables metrics and tracing
	closed     atomic.Bool
	sweepIdem  sweepIdemStore // engine-wide idempotency registry for sweeps
	peer       atomic.Pointer[PeerLookup]
	evalCost   atomic.Int64 // emulated per-evaluation application run time, ns

	// Replication (see replica.go): the planner names each session's
	// follower, replClient ships journal records to it, and replicas
	// stores the records this node holds for sessions owned elsewhere
	// (nil without a journal directory).
	replPlanner atomic.Pointer[ReplicaPlanner]
	replClient  *http.Client
	replicas    *replicaStore

	// Replication counters (nil-safe; nil without telemetry).
	replShips      *obsv.Counter
	replAccepts    *obsv.Counter
	replDegraded   *obsv.Counter
	replFenced     *obsv.Counter
	replRejects    *obsv.Counter
	replPromotions *obsv.Counter

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int
}

// Options configures an engine.
type Options struct {
	// Workers bounds concurrent evaluations (<= 0 selects GOMAXPROCS).
	Workers int
	// JournalDir, when non-empty, enables session durability: every
	// committed operation is fsync'd to <dir>/<id>.journal before the
	// caller sees its result, and snapshots rotate atomically.
	JournalDir string
	// SnapshotEvery is the number of journaled operations between
	// snapshot rotations (<= 0 selects the default, 32).
	SnapshotEvery int
	// Telemetry, when non-nil, turns on metrics and span recording
	// across the pool, cache, journals and sessions. Nil is the
	// zero-cost disabled path.
	Telemetry *obsv.Telemetry
}

// New returns an engine admitting workers concurrent evaluations
// (workers <= 0 selects GOMAXPROCS), without durability.
func New(workers int) *Engine {
	return NewWithOptions(Options{Workers: workers})
}

// NewWithOptions returns an engine configured by opts.
func NewWithOptions(opts Options) *Engine {
	e := &Engine{
		pool:       NewPool(opts.Workers),
		cache:      NewCache(),
		journalDir: opts.JournalDir,
		snapEvery:  opts.SnapshotEvery,
		tel:        opts.Telemetry,
		sessions:   map[string]*Session{},
		replClient: &http.Client{Timeout: replicaShipTimeout},
	}
	e.pool.tel = opts.Telemetry
	e.cache.tel = opts.Telemetry
	if opts.JournalDir != "" {
		e.replicas = newReplicaStore(opts.JournalDir)
	}
	if tel := opts.Telemetry; tel != nil {
		e.replShips = tel.Reg.Counter("phasetune_replica_ships_total",
			"journal batches acked by a session's follower", nil)
		e.replAccepts = tel.Reg.Counter("phasetune_replica_accepts_total",
			"replica batches accepted and fsync'd on behalf of remote owners", nil)
		e.replDegraded = tel.Reg.Counter("phasetune_replica_degraded_total",
			"commits acked with replication lagging (follower unreachable)", nil)
		e.replFenced = tel.Reg.Counter("phasetune_replica_fenced_total",
			"local sessions failed closed because a newer generation is live elsewhere", nil)
		e.replRejects = tel.Reg.Counter("phasetune_replica_rejects_total",
			"replica batches refused (stale generation or sequence gap)", nil)
		e.replPromotions = tel.Reg.Counter("phasetune_replica_promotions_total",
			"replica journals promoted into live sessions", nil)
	}
	return e
}

// replicaShipTimeout bounds one replication round-trip. Short: the
// follower's work is an fsync'd append, and a slow follower must not
// stall the owner's commit path indefinitely — past the timeout the
// owner degrades to lagging replication instead.
const replicaShipTimeout = 2 * time.Second

// Telemetry returns the engine's telemetry bundle (nil when disabled).
func (e *Engine) Telemetry() *obsv.Telemetry { return e.tel }

// SetEvalCost makes every session-step evaluation occupy a worker slot
// for an extra d of wall time, emulating the regime the paper's tuning
// loop lives in: an observation is a run of the application, and runs
// take real time on real nodes while the tuner's own bookkeeping is
// nearly free. The sleep happens under the pool's concurrency bound —
// exactly like a simulation would — and never touches observed values,
// so trajectories and journals are byte-identical with the cost on or
// off. Zero (the default) disables the emulation; sweeps and journal
// recovery never pay it.
func (e *Engine) SetEvalCost(d time.Duration) { e.evalCost.Store(int64(d)) }

// ErrClosed is returned by every operation after Close.
var ErrClosed = errors.New("engine: closed")

// Close flushes and closes every session journal (final snapshot
// rotation included) and rejects all further operations. It is the
// second half of graceful shutdown: the HTTP server drains in-flight
// requests first, then Close makes the on-disk state recover with an
// empty journal tail.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	var errs []error
	for _, s := range e.liveSessions() {
		s.mu.Lock()
		if s.jl != nil && !s.broken {
			if err := s.jl.close(); err != nil {
				errs = append(errs, err)
			}
			s.jl = nil
		}
		s.mu.Unlock()
	}
	if rs := e.replicas; rs != nil {
		// Replica files are fsync'd per append; closing releases the
		// descriptors, and a later promotion reads from disk.
		rs.mu.Lock()
		ids := make([]string, 0, len(rs.sessions))
		for id := range rs.sessions {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			st := rs.sessions[id]
			st.mu.Lock() // wait out an in-flight append before closing
			err := st.f.Close()
			st.mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("engine: close replica %s: %w", id, err))
			}
			delete(rs.sessions, id)
		}
		rs.mu.Unlock()
	}
	return errors.Join(errs...)
}

// Cache exposes the shared evaluation cache (tests, metrics).
func (e *Engine) Cache() *Cache { return e.cache }

// PeerLookup asks shard peers whether one of them already holds a
// completed evaluation for key. It runs inside the cache singleflight on
// a local miss, before the pool slot is requested, so a peer answer
// saves both the slot wait and the simulation. Implementations must be
// safe for concurrent use and should fail fast (short timeouts): a
// (0, false) return simply falls back to local computation.
type PeerLookup func(ctx context.Context, key CacheKey) (float64, bool)

// SetPeerLookup installs (or, with nil, clears) the cross-shard cache
// lookup hook. Safe to call concurrently with serving.
func (e *Engine) SetPeerLookup(fn PeerLookup) { e.peer.Store(&fn) }

// peerFetch consults the installed peer lookup, counting hits/misses.
func (e *Engine) peerFetch(ctx context.Context, key CacheKey) (float64, bool) {
	p := e.peer.Load()
	if p == nil || *p == nil {
		return 0, false
	}
	v, ok := (*p)(ctx, key)
	if e.tel != nil {
		if ok {
			e.tel.PeerHits.Inc()
		} else {
			e.tel.PeerMisses.Inc()
		}
	}
	return v, ok
}

// PeekShared serves a shard peer's cache probe: a completed local value
// for key, counting the share when found. Read-only and safe at any
// lifecycle point, including during recovery replay.
func (e *Engine) PeekShared(key CacheKey) (float64, bool) {
	v, ok := e.cache.Peek(key)
	if ok && e.tel != nil {
		e.tel.PeerShares.Inc()
	}
	return v, ok
}

// Workers returns the evaluation concurrency bound.
func (e *Engine) Workers() int { return e.pool.Workers() }

// resolveScenario picks the scenario a config names.
func resolveScenario(cfg SessionConfig) (platform.Scenario, error) {
	if cfg.Scenario != nil {
		return *cfg.Scenario, nil
	}
	sc, ok := platform.ScenarioByKey(cfg.ScenarioKey)
	if !ok {
		return platform.Scenario{}, fmt.Errorf("engine: unknown scenario %q", cfg.ScenarioKey)
	}
	return sc, nil
}

// buildSession constructs a session's machinery — scenario, LP bound,
// strategy, driver, evaluator, noise stream — without registering it or
// touching the journal. CreateSession and Recover share it.
func (e *Engine) buildSession(cfg SessionConfig) (*Session, error) {
	sc, err := resolveScenario(cfg)
	if err != nil {
		return nil, err
	}
	opts := harness.SimOptions{Tiles: cfg.Tiles, Exact: cfg.Exact, GenNodes: cfg.GenNodes}
	lpf, err := harness.LPBound(sc, opts)
	if err != nil {
		return nil, err
	}
	name := cfg.Strategy
	if name == "" {
		name = "GP-discontinuous"
	}
	strat, err := harness.NewStrategy(name, core.Context{
		N:          sc.Platform.N(),
		Min:        sc.MinNodes,
		GroupSizes: sc.Platform.GroupSizes(),
		LP:         lpf,
	})
	if err != nil {
		return nil, err
	}
	s := &Session{
		driver: NewDriver(strat),
		ev:     harness.NewEvaluator(sc, opts),
		seed:   cfg.Seed,
		noise:  stats.NewRNG(cfg.Seed),
	}
	if e.tel != nil {
		s.props = e.tel.Reg.Counter("phasetune_strategy_proposals_total",
			"actions proposed by tuning strategies", obsv.Labels{"strategy": name})
	}
	return s, nil
}

// CreateSession builds a session: scenario, LP bound, strategy, driver,
// evaluator and noise stream. With journaling enabled the session's
// create record is durable before CreateSession returns. The returned
// ID addresses the session in every other call.
func (e *Engine) CreateSession(cfg SessionConfig) (*Session, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if e.journalDir != "" && cfg.Scenario != nil {
		return nil, fmt.Errorf("engine: explicit scenarios are not journalable; use a scenario key")
	}
	if cfg.ID != "" {
		if err := ValidateSessionID(cfg.ID); err != nil {
			return nil, err
		}
	}
	s, err := e.buildSession(cfg)
	if err != nil {
		return nil, err
	}

	e.mu.Lock()
	if cfg.ID != "" {
		if _, taken := e.sessions[cfg.ID]; taken {
			e.mu.Unlock()
			return nil, fmt.Errorf("engine: session %q already exists", cfg.ID)
		}
		s.id = cfg.ID
	} else {
		// Mint "s<n>", skipping ids a client already claimed.
		for {
			e.nextID++
			s.id = fmt.Sprintf("s%d", e.nextID)
			if _, taken := e.sessions[s.id]; !taken {
				break
			}
		}
	}
	e.sessions[s.id] = s
	e.mu.Unlock()

	if e.journalDir != "" {
		name := cfg.Strategy
		if name == "" {
			name = "GP-discontinuous"
		}
		jl, err := newJournal(e.journalDir, s.id, journalConfig{
			ScenarioKey: cfg.ScenarioKey,
			Strategy:    name,
			Seed:        cfg.Seed,
			Tiles:       cfg.Tiles,
			Exact:       cfg.Exact,
			GenNodes:    cfg.GenNodes,
		}, e.snapEvery, 1, e.tel)
		if err != nil {
			e.mu.Lock()
			delete(e.sessions, s.id)
			e.mu.Unlock()
			return nil, err
		}
		s.mu.Lock()
		s.jl = jl
		s.gen = 1 // fresh sessions start at generation 1; promotions bump it
		// Ship the create record now, acked-before-visible, like every
		// other fsync'd record: a session whose owner dies before its
		// first op commits must still exist on its follower, or the
		// supervisor would have nothing to promote and the id would be
		// unservable until an operator intervened. A transport failure
		// degrades (single-copy, lagging) exactly as op shipping does.
		replErr := e.replicate(context.Background(), s) //lint:allow ctxflow perfbench/ calls CreateSession(cfg), which takes no context; the ship client carries its own timeout
		s.mu.Unlock()
		if replErr != nil {
			// A refusal on a brand-new id means the id is already live
			// at some generation elsewhere — acking this create would
			// fork it. The journal file stays behind for forensics; a
			// restart that replays it is refused the same way on its
			// first commit.
			e.mu.Lock()
			delete(e.sessions, s.id)
			e.mu.Unlock()
			_ = jl.close()
			return nil, replErr
		}
	}
	e.tel.Emit("session.created", s.id, "",
		map[string]any{"strategy": s.driver.Name(), "seed": s.seed})
	return s, nil
}

// Session returns a session by ID.
func (e *Engine) Session(id string) (*Session, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.sessions[id]
	return s, ok
}

// Result returns the session's summary.
func (e *Engine) Result(id string) (SessionResult, error) {
	s, ok := e.Session(id)
	if !ok {
		return SessionResult{}, fmt.Errorf("engine: no session %q", id)
	}
	return s.result(), nil
}

// evalOut is one proposal's evaluation outcome.
type evalOut struct {
	v   float64
	hit bool
	err error
}

// eval fetches the deterministic makespan for (session scenario, epoch,
// action) through the shared cache; a cold miss runs the DES simulation
// under a pool slot, while waiters and hits pay nothing. ctx bounds the
// wait for a pool slot or an in-flight computation, never a running
// simulation.
func (e *Engine) eval(ctx context.Context, s *Session, epoch, action int) evalOut {
	sc := obsv.FromContext(ctx)
	endLookup := sc.Span("cache", "cache.lookup")
	key := CacheKey{Fingerprint: s.ev.Fingerprint(), Epoch: epoch, Action: action}
	v, hit, err := e.cache.EvalCtx(ctx, key, func() (float64, error) {
		// A local miss first asks shard peers (when configured): a value
		// another shard already computed skips the pool entirely. Peer
		// values round-trip through JSON bit-exactly (Go emits the
		// shortest representation that parses back to the same float64),
		// so observation logs stay byte-identical either way.
		if pv, ok := e.peerFetch(ctx, key); ok {
			return pv, nil
		}
		endAdmit := sc.Span("pool", "pool.admit")
		var v float64
		var verr error
		derr := e.pool.DoCtx(ctx, func() {
			endAdmit(nil)
			endEval := sc.Span("des", "des.eval")
			if sc.Tracing() {
				rec := trace.NewRecorder()
				v, verr = s.ev.EvaluateObserved(action, rec)
				endEval(map[string]any{"action": action, "epoch": epoch, "makespan": v})
				sc.SimEval(fmt.Sprintf("eval n=%d epoch=%d", action, epoch), rec.Spans())
			} else {
				v, verr = s.ev.Evaluate(action)
				endEval(nil)
			}
		})
		if derr != nil {
			// DoCtx gave up before fn ran; close the admission span here.
			if sc != nil {
				endAdmit(map[string]any{"error": derr.Error()})
			}
			return 0, derr
		}
		return v, verr
	})
	if sc != nil {
		endLookup(map[string]any{"action": action, "epoch": epoch, "hit": hit})
	} else {
		endLookup(nil)
	}
	if d := time.Duration(e.evalCost.Load()); d > 0 && err == nil {
		// The emulated application run occupies a pool slot whether the
		// makespan came from the cache or a fresh simulation: the paper's
		// observation is the run itself, and the cache only spares the
		// deterministic reference computation.
		if derr := e.pool.DoCtx(ctx, func() {
			time.Sleep(d) //lint:allow determinism emulated application run time is wall-clock only and never reaches observed values
		}); derr != nil {
			return evalOut{hit: hit, err: derr}
		}
	}
	return evalOut{v: v, hit: hit, err: err}
}

// checkout fetches an operable session: it must exist, the engine must
// be open, and the session must not have failed closed on a journal
// error.
func (e *Engine) checkout(id string) (*Session, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	s, ok := e.Session(id)
	if !ok {
		return nil, fmt.Errorf("engine: no session %q", id)
	}
	return s, nil
}

// commitOp journals one committed (or aborted) operation under the
// session lock and ships it to the session's follower before the
// caller sees the result (acked-before-visible; see replica.go). On
// local append failure the session fails closed: its in-memory state
// is ahead of disk and the journal is the source of truth, so
// continuing to serve would let the divergence compound. ctx bounds
// the replication round-trip, never the local fsync.
func (e *Engine) commitOp(ctx context.Context, s *Session, rec journalRecord) error {
	if s.jl == nil {
		return nil
	}
	if err := s.jl.append(rec); err != nil {
		s.broken = true
		return fmt.Errorf("engine: session %s fails closed (journal unwritable, restart with recovery): %w", s.id, err)
	}
	return e.replicate(ctx, s)
}

// StepCtx advances a session by one sequential tuning iteration:
// propose -> evaluate (cache/pool) -> noisy observation -> Observe. With
// the same seed and strategy, a stepped session reproduces
// harness.RunOnline bit-for-bit regardless of the engine's worker count
// or what other sessions are doing. The committed step is journaled
// (fsync'd) before StepCtx returns.
func (e *Engine) StepCtx(ctx context.Context, id string) (StepResult, error) {
	res, _, err := e.step(ctx, id, "")
	return res, err
}

// step is StepCtx under an idempotency key: a key that already
// committed a step replays the journaled result (byte-identical fields,
// no second application) and reports replayed=true. An empty key
// disables idempotency.
func (e *Engine) step(ctx context.Context, id, key string) (StepResult, bool, error) {
	var res StepResult
	_, replayed, err := e.round(ctx, id, "step", 1, key, nil, func(r StepResult) { res = r })
	return res, replayed, err
}

// BatchStepIdem advances a session by up to k speculative iterations:
// the driver proposes a constant-liar batch, all proposals are
// evaluated in parallel, and the results are committed in proposal
// order. The whole batch is journaled as one record, so a crash either
// keeps the complete batch or none of it. A key that already committed
// a batch replays the journaled steps instead of proposing and
// evaluating again, and reports replayed=true; the batch width k is
// part of the request shape, so reusing a key with a different k is an
// ErrIdemConflict. An empty key disables idempotency.
func (e *Engine) BatchStepIdem(ctx context.Context, id string, k int, key string) ([]StepResult, bool, error) {
	var out []StepResult
	_, replayed, err := e.round(ctx, id, "batch", k, key, nil, func(r StepResult) { out = append(out, r) })
	return out, replayed, err
}

// StreamBatchStepIdem advances a session by up to k speculative
// iterations, delivering each step through onStep as it commits instead
// of waiting for the whole batch: the slowest evaluation no longer
// gates every result. onStart (optional) fires once after the operation
// is admitted, before the first onStep, with replayed=true when an
// idempotency key replays previously committed steps. The returned
// count is the number of steps delivered.
//
// On a mid-stream evaluation failure the committed prefix stays
// committed (each step was already durable and delivered) and the
// error is returned after the last good step; the journaled "spropose"
// record makes recovery replay the consumed proposals exactly, like a
// batch abort. An idempotency key registers progressively: a retried
// key replays exactly the prefix that durably committed, while a stream
// that failed before its first commit re-attempts from scratch.
func (e *Engine) StreamBatchStepIdem(ctx context.Context, id string, k int, key string, onStart func(replayed bool), onStep func(StepResult)) (int, bool, error) {
	return e.round(ctx, id, "stream", k, key, onStart, onStep)
}

// round is the one propose -> evaluate -> commit pipeline behind step,
// batch and stream: checkout, session lock, idempotency lookup, one
// constant-liar proposal of up to k actions, evaluation through the
// shared cache, then observe-and-record in proposal order. Committing
// in proposal order (not completion order) consumes the noise stream
// exactly as a sequential run does, which is what keeps every
// observation log a pure function of (seed, strategy, op sequence) at
// any worker count, streamed or not.
//
// The ops differ only in when they journal. step (k=1) and batch write
// one record once every evaluation succeeded, or an abort record when
// any failed, so recovery lands on op boundaries. stream journals its
// proposals and lies first ("spropose"; whatever happens next, recovery
// replays this exact proposal sequence) and then one "scommit" per
// step, the moment it is the oldest uncommitted proposal. Steps reach
// onStep in commit order; onStart (optional) fires once the op is
// admitted, with replayed=true when key replays a committed op.
func (e *Engine) round(ctx context.Context, id, op string, k int, key string, onStart func(replayed bool), onStep func(StepResult)) (int, bool, error) {
	if k < 1 {
		k = 1
	}
	s, err := e.checkout(id)
	if err != nil {
		return 0, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent, found, err := s.begin(op, k, key); err != nil {
		return 0, false, err
	} else if found {
		if onStart != nil {
			onStart(true)
		}
		steps := s.replaySteps(ent)
		for _, r := range steps {
			onStep(r)
		}
		return len(steps), true, nil
	}
	stream := op == "stream"
	opSpan, proposeSpan := "session.batch-step", "strategy.propose-batch"
	switch op {
	case "step":
		opSpan, proposeSpan = "session.step", "strategy.propose"
	case "stream":
		opSpan = "session.stream-step"
	}
	sc := obsv.FromContext(ctx)
	var opArgs map[string]any
	endOp := sc.Span("session", opSpan)
	defer func() { endOp(opArgs) }()
	epoch, fp := s.epoch, s.ev.Fingerprint()
	endPropose := sc.Span("strategy", proposeSpan)
	actions, lies := s.driver.NextBatch(k, func(a int) (float64, bool) {
		return e.cache.Peek(CacheKey{Fingerprint: fp, Epoch: epoch, Action: a})
	})
	s.props.Add(float64(len(actions)))
	switch {
	case sc == nil:
		endPropose(nil)
	case op == "step":
		endPropose(map[string]any{"action": actions[0]})
	default:
		endPropose(map[string]any{"k": k, "proposed": len(actions)})
	}
	if stream {
		if err := e.commitOp(ctx, s, journalRecord{
			T: "spropose", Epoch: epoch, K: k, Actions: actions, Lies: lies, Key: key,
		}); err != nil {
			return 0, false, err
		}
		if onStart != nil {
			onStart(false)
		}
	}

	outs, ready := e.evaluate(ctx, s, epoch, actions)
	if !stream {
		// All or nothing: wait for every evaluation. The strategy already
		// consumed the proposals and lies, so a failure journals an abort
		// and recovery reconstructs the identical strategy state. The
		// abort carries no key: a retry must re-attempt, not replay.
		var failed error
		for i := range outs {
			if ready != nil {
				<-ready[i]
			}
			if failed == nil {
				failed = outs[i].err
			}
		}
		if failed != nil {
			if jerr := e.commitOp(ctx, s, journalRecord{T: "abort", Epoch: epoch, Actions: actions, Lies: lies}); jerr != nil {
				return 0, false, errors.Join(failed, jerr)
			}
			return 0, false, failed
		}
	}
	first := len(s.actions)
	hits := make([]bool, 0, len(actions))
	for i, a := range actions {
		if ready != nil {
			<-ready[i]
		}
		out := outs[i]
		if out.err != nil {
			// Stream only: the committed prefix is durable and delivered,
			// and spropose already captured the consumed proposals, so no
			// abort record. Later evaluations only warm the cache.
			return i, false, out.err
		}
		d := s.observe(out.v)
		s.driver.Observe(a, d)
		s.record(a, d, out.v)
		hits = append(hits, out.hit)
		if stream {
			if err := e.commitOp(ctx, s, journalRecord{
				T: "scommit", Epoch: epoch, Iter: first + i,
				Actions: []int{a}, Sims: []float64{out.v}, Obs: []float64{d}, Hits: []bool{out.hit},
			}); err != nil {
				return i, false, err
			}
			// Progressive registration: after each durable step the key
			// replays exactly this prefix.
			s.registerIdem(key, idemEntry{op: op, first: first, n: i + 1, k: k, hits: append([]bool(nil), hits...)})
			onStep(s.stepResultAt(first+i, out.hit))
		}
	}
	if !stream {
		// The record shares the just-recorded history: the session only
		// ever appends to it, so these elements never change again.
		end := len(s.sims)
		rec := journalRecord{
			T: op, Epoch: epoch, Iter: first, Key: key, Actions: actions, Lies: lies,
			Sims: s.sims[first:end:end], Obs: s.durations[first:end:end], Hits: hits,
		}
		if op == "batch" {
			rec.K = k
		}
		if err := e.commitOp(ctx, s, rec); err != nil {
			return 0, false, err
		}
		s.registerIdem(key, idemEntry{op: op, first: first, n: len(actions), k: k, hits: hits})
		for i, hit := range hits {
			onStep(s.stepResultAt(first+i, hit))
		}
	}
	if sc != nil {
		if op == "step" {
			opArgs = map[string]any{"iter": first, "action": actions[0], "sim": outs[0].v, "cache_hit": outs[0].hit}
		} else {
			opArgs = map[string]any{"k": k, "steps": len(actions), "first_iter": first}
		}
	}
	return len(actions), false, nil
}

// evaluate starts the evaluation of every proposal. A single proposal
// is evaluated inline on the caller's goroutine and ready is nil;
// otherwise each proposal gets its own goroutine (so the cache
// singleflight can collapse duplicates without idling a pool slot) and
// ready[i] closes once outs[i] is final.
func (e *Engine) evaluate(ctx context.Context, s *Session, epoch int, actions []int) (outs []evalOut, ready []chan struct{}) {
	outs = make([]evalOut, len(actions))
	if len(actions) == 1 {
		outs[0] = e.eval(ctx, s, epoch, actions[0])
		return outs, nil
	}
	ready = make([]chan struct{}, len(actions))
	for i, a := range actions {
		done := make(chan struct{})
		ready[i] = done
		go func(out *evalOut) {
			defer close(done)
			*out = e.eval(ctx, s, epoch, a)
		}(&outs[i])
	}
	return outs, ready
}

// AdvanceEpochIdem bumps the session's platform epoch and evicts the
// fingerprint's now-stale cache entries. This is the hook the fault
// layer drives when the platform underneath a served session changes:
// values from different epochs never mix (the key separates them) and
// the old epoch's memory is reclaimed. The transition is journaled so a
// recovered session resumes in the correct epoch. A key that already
// committed an epoch advance replays the resulting epoch instead of
// advancing again — the difference between a retried request costing
// nothing and a platform silently skipping an epoch. An empty key
// disables idempotency. ctx bounds the replication ship of the
// journaled transition.
func (e *Engine) AdvanceEpochIdem(ctx context.Context, id, key string) (int, bool, error) {
	s, err := e.checkout(id)
	if err != nil {
		return 0, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent, found, err := s.begin("epoch", 0, key); err != nil {
		return 0, false, err
	} else if found {
		return ent.epoch, true, nil
	}
	s.epoch++
	e.cache.DropEpochsBelow(s.ev.Fingerprint(), s.epoch)
	if err := e.commitOp(ctx, s, journalRecord{T: "epoch", Epoch: s.epoch, Key: key}); err != nil {
		return 0, false, err
	}
	s.registerIdem(key, idemEntry{op: "epoch", epoch: s.epoch})
	return s.epoch, false, nil
}

// errCollector mirrors the harness's parallel first-error funnel.
type errCollector struct {
	mu  sync.Mutex
	err error
}

func (c *errCollector) record(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

func (c *errCollector) first() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// SweepOptions configures a parallel evaluation sweep.
type SweepOptions struct {
	// NoiseSD > 0 additionally draws Reps noisy observations per action
	// (a parallel stand-in for Curve.Pool); the noise stream of action a
	// is derived with DeriveSeed(Seed, a), so the sweep is bit-for-bit
	// reproducible at any worker count.
	NoiseSD float64
	Reps    int
	Seed    int64
	// Epoch keys the cache entries (default 0).
	Epoch int
}

// SweepPoint is one action's sweep outcome.
type SweepPoint struct {
	Action   int       `json:"action"`
	Makespan float64   `json:"makespan"`
	CacheHit bool      `json:"cache_hit"`
	Noisy    []float64 `json:"noisy,omitempty"`
}

// SweepResult is a full f(n) evaluation sweep.
type SweepResult struct {
	Scenario     string       `json:"scenario"`
	Fingerprint  string       `json:"fingerprint"`
	Points       []SweepPoint `json:"points"`
	BestAction   int          `json:"best_action"`
	BestMakespan float64      `json:"best_makespan"`
}

// Sweep evaluates every feasible action of the scenario in parallel
// through the shared cache and returns the per-action makespans and the
// argmin. Deterministic: the same inputs give the same result at any
// worker count, and the best action matches a sequential
// SimulateIteration loop exactly.
func (e *Engine) Sweep(sc platform.Scenario, opts harness.SimOptions, so SweepOptions) (*SweepResult, error) {
	//lint:allow ctxflow perfbench/ calls Sweep(sc, opts, so), which takes no context; HTTP sweeps go through sweepKeyed
	return e.sweep(context.Background(), sc, opts, so)
}

// sweep is Sweep bounded by ctx: it bounds slot and singleflight
// waits, not running simulations.
func (e *Engine) sweep(ctx context.Context, sc platform.Scenario, opts harness.SimOptions, so SweepOptions) (*SweepResult, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	ev := harness.NewEvaluator(sc, opts)
	batch := ev.Batch() // one template for this sweep's cold actions
	actions := ev.Actions()
	res := &SweepResult{
		Scenario:    sc.Name,
		Fingerprint: ev.Fingerprint(),
		Points:      make([]SweepPoint, len(actions)),
	}
	var errs errCollector
	e.pool.ForEach(len(actions), func(i int) {
		a := actions[i]
		key := CacheKey{Fingerprint: ev.Fingerprint(), Epoch: so.Epoch, Action: a}
		mk, hit, err := e.cache.EvalCtx(ctx, key, func() (float64, error) {
			if pv, ok := e.peerFetch(ctx, key); ok {
				return pv, nil
			}
			var v float64
			var verr error
			if derr := e.pool.DoCtx(ctx, func() { v, verr = batch.Evaluate(a) }); derr != nil {
				return 0, derr
			}
			return v, verr
		})
		if err != nil {
			errs.record(err)
			return
		}
		p := SweepPoint{Action: a, Makespan: mk, CacheHit: hit}
		if so.NoiseSD > 0 && so.Reps > 0 {
			rng := stats.NewRNG(DeriveSeed(so.Seed, uint64(a)))
			p.Noisy = make([]float64, so.Reps)
			for r := range p.Noisy {
				d := mk + rng.Normal(0, so.NoiseSD)
				if d < 0.01 {
					d = 0.01
				}
				p.Noisy[r] = d
			}
		}
		res.Points[i] = p
	})
	if err := errs.first(); err != nil {
		return nil, err
	}
	res.BestAction = res.Points[0].Action
	res.BestMakespan = res.Points[0].Makespan
	for _, p := range res.Points[1:] {
		if p.Makespan < res.BestMakespan {
			res.BestAction, res.BestMakespan = p.Action, p.Makespan
		}
	}
	return res, nil
}

// Metrics is the engine-wide observability snapshot rendered as
// Prometheus text at /metrics.
type Metrics struct {
	Workers         int
	InFlightEvals   int64
	WaitingEvals    int64
	JournalDir      string
	Cache           CacheStats
	Sessions        []SessionResult // summaries without trajectories
	SessionsTotal   int
	IterationsTotal int
}

// Metrics snapshots the engine: pool occupancy, cache accounting and
// every session's summary (including its exact cumulative regret). It
// copies no trajectory, so a scrape costs the same however long the
// sessions have run; GET /v1/sessions/{id} serves the trajectories.
func (e *Engine) Metrics() Metrics {
	sessions := e.liveSessions()
	m := Metrics{
		Workers:       e.pool.Workers(),
		InFlightEvals: e.pool.InFlight(),
		WaitingEvals:  e.pool.Waiting(),
		JournalDir:    e.journalDir,
		Cache:         e.cache.Stats(),
		Sessions:      make([]SessionResult, 0, len(sessions)),
		SessionsTotal: len(sessions),
	}
	for _, s := range sessions {
		s.mu.Lock()
		r := s.summary()
		s.mu.Unlock()
		m.Sessions = append(m.Sessions, r)
		m.IterationsTotal += r.Iterations
	}
	return m
}

// liveSessions lists the registered sessions in stable id order.
func (e *Engine) liveSessions() []*Session {
	e.mu.Lock()
	sessions := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		sessions = append(sessions, s)
	}
	e.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	return sessions
}
