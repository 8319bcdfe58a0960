package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"phasetune/internal/harness"
	"phasetune/internal/platform"
)

// sweepArgs bundles one sweep request for sweepKeyed.
type sweepArgs struct {
	Scenario  platform.Scenario
	Opts      harness.SimOptions
	SweepOpts SweepOptions
}

// Idempotent mutations: every mutating operation (step, batch-step,
// advance-epoch, sweep) accepts a client-supplied idempotency key. The
// first request to commit under a key journals the key alongside the
// operation record, so a retried request — after a network failure, a
// client timeout, even a kill -9 and -recover restart — returns the
// original result instead of double-applying the mutation. Responses
// replayed from the registry are built from the journaled fields
// (actions, observations, sims, cache-hit flags), so the retried
// response serializes byte-for-byte identical to the first one.
//
// Keys are scoped per session for session operations (two sessions may
// use the same key independently) and engine-wide for sweeps (which
// have no session). Reusing a key with a different request shape — a
// different operation, a different batch width k, a different sweep
// spec — is a client bug and is answered with ErrIdemConflict rather
// than silently returning a result for a request the client did not
// make.

// ErrIdemConflict reports an idempotency key reused with a different
// request than the one that first committed under it.
var ErrIdemConflict = errors.New("engine: idempotency key reused with a different request")

// maxIdemKeyLen bounds client-supplied keys; longer keys are a client
// error (the journal stores every key verbatim).
const maxIdemKeyLen = 128

// ValidateIdemKey checks a client-supplied idempotency key: bounded
// length, visible ASCII only (keys are journaled verbatim and echoed
// into error messages). An empty key is valid and means "no
// idempotency".
func ValidateIdemKey(key string) error {
	if len(key) > maxIdemKeyLen {
		return fmt.Errorf("engine: idempotency key longer than %d bytes", maxIdemKeyLen)
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] > '~' {
			return fmt.Errorf("engine: idempotency key holds non-printable byte 0x%02x at %d", key[i], i)
		}
	}
	return nil
}

// idemEntry is one committed operation addressable by its key. The
// entry stores indices into the session's history plus the journaled
// cache-hit flags — everything needed to rebuild the original response
// exactly. Stream entries are registered progressively: the entry's n
// grows as each streamed step commits, so a retried key replays exactly
// the prefix the original request durably committed.
type idemEntry struct {
	op    string // "step" | "batch" | "stream" | "epoch"
	first int    // index of the first committed step (step/batch/stream)
	n     int    // committed step count (step: 1)
	k     int    // requested batch width (batch/stream; part of the request shape)
	epoch int    // resulting epoch (epoch op)
	hits  []bool // journaled per-step cache-hit flags
}

// begin is the prologue every session mutation runs under the session
// lock: it resolves key against the idempotency registry and, when
// nothing replays, refuses a session that failed closed. Returns
// (entry, found) for a key that already committed this request shape,
// or ErrIdemConflict when the key committed a different one.
func (s *Session) begin(op string, k int, key string) (idemEntry, bool, error) {
	if ent, ok := s.idem[key]; ok { // registerIdem never stores the empty key
		if ent.op != op || ((op == "batch" || op == "stream") && ent.k != k) {
			return idemEntry{}, false, fmt.Errorf("%w: key %q committed a %q operation", ErrIdemConflict, key, ent.op)
		}
		return ent, true, nil
	}
	if s.broken {
		return idemEntry{}, false, fmt.Errorf("engine: session %q failed closed on a journal error", s.id)
	}
	return idemEntry{}, false, nil
}

// registerIdem records a committed operation under its key. Must be
// called under the session lock, after the journal append succeeded —
// a key only ever maps to a durable result.
func (s *Session) registerIdem(key string, ent idemEntry) {
	if key == "" {
		return
	}
	if s.idem == nil {
		s.idem = map[string]idemEntry{}
	}
	s.idem[key] = ent
}

// stepResultAt rebuilds the response for committed step i from the
// session history. Under the session lock.
func (s *Session) stepResultAt(i int, hit bool) StepResult {
	return StepResult{
		Iter:     i,
		Action:   s.actions[i],
		Duration: s.durations[i],
		Sim:      s.sims[i],
		CacheHit: hit,
	}
}

// replayEntry rebuilds the full response a committed entry produced.
// Under the session lock.
func (s *Session) replaySteps(ent idemEntry) []StepResult {
	out := make([]StepResult, 0, ent.n)
	for i := 0; i < ent.n; i++ {
		hit := false
		if i < len(ent.hits) {
			hit = ent.hits[i]
		}
		out = append(out, s.stepResultAt(ent.first+i, hit))
	}
	return out
}

// sweepIdemStore is the engine-wide idempotency registry for sweeps.
// Sweeps are stateless (no session, no journal), so the registry is
// in-memory only and singleflight-shaped: a retry that lands while the
// first attempt still computes waits for it instead of recomputing.
// After a crash the registry is empty — which is safe, because sweeps
// are pure functions of their request (the engine's determinism
// contract), so a re-executed sweep returns a byte-identical response
// anyway. The registry exists to absorb retry load, not to provide
// durability the computation does not need.
type sweepIdemStore struct {
	mu      sync.Mutex
	entries map[string]*sweepIdemEntry
	order   []string // FIFO eviction order
}

// maxSweepKeys bounds the sweep registry; the oldest keys are evicted
// first (a retry of an evicted key recomputes, deterministically).
const maxSweepKeys = 1024

type sweepIdemEntry struct {
	fp   string // request fingerprint; reuse with a different fp is a conflict
	done chan struct{}
	res  *SweepResult
	err  error
}

// begin claims a key for a request fingerprint. It returns the entry
// plus leader=true when the caller must run the sweep and complete the
// entry; leader=false means another request owns the key — wait on
// entry.done.
func (st *sweepIdemStore) begin(key, fp string) (*sweepIdemEntry, bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.entries == nil {
		st.entries = map[string]*sweepIdemEntry{}
	}
	if ent, ok := st.entries[key]; ok {
		if ent.fp != fp {
			return nil, false, fmt.Errorf("%w: sweep key %q committed a different sweep", ErrIdemConflict, key)
		}
		return ent, false, nil
	}
	for len(st.order) >= maxSweepKeys {
		delete(st.entries, st.order[0])
		st.order = st.order[1:]
	}
	ent := &sweepIdemEntry{fp: fp, done: make(chan struct{})}
	st.entries[key] = ent
	st.order = append(st.order, key)
	return ent, true, nil
}

// fail removes a key whose leader could not complete the sweep, so a
// later retry re-attempts instead of replaying the failure forever.
func (st *sweepIdemStore) fail(key string, ent *sweepIdemEntry, err error) {
	ent.err = err
	st.mu.Lock()
	if st.entries[key] == ent {
		delete(st.entries, key)
		for i, k := range st.order {
			if k == key {
				st.order = append(st.order[:i], st.order[i+1:]...)
				break
			}
		}
	}
	st.mu.Unlock()
	close(ent.done)
}

// sweepKeyed runs a sweep under an idempotency key: the first request
// with the key computes, concurrent retries wait for that computation,
// and later retries replay the stored result. fp fingerprints the full
// request; reusing a key with a different fingerprint returns
// ErrIdemConflict. The second return reports whether the response was
// replayed rather than computed by this call.
func (e *Engine) sweepKeyed(ctx context.Context, key, fp string, args sweepArgs) (*SweepResult, bool, error) {
	if key == "" {
		res, err := e.sweep(ctx, args.Scenario, args.Opts, args.SweepOpts)
		return res, false, err
	}
	ent, leader, err := e.sweepIdem.begin(key, fp)
	if err != nil {
		return nil, false, err
	}
	if !leader {
		select {
		case <-ent.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if ent.err != nil {
			return nil, false, ent.err
		}
		return ent.res, true, nil
	}
	res, err := e.sweep(ctx, args.Scenario, args.Opts, args.SweepOpts)
	if err != nil {
		e.sweepIdem.fail(key, ent, err)
		return nil, false, err
	}
	ent.res = res
	close(ent.done)
	return res, false, nil
}
