package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"phasetune/internal/fsutil"
	"phasetune/internal/obsv"
)

// Replication: every fsync'd journal record of a session is shipped,
// synchronously and acked-before-visible, to a follower node so that
// losing the owner — process, disk and all — loses no committed
// operation. The follower stores the records verbatim in a replica
// journal; promotion moves that file into the live journal directory
// and runs the ordinary Recover replay path over it, so a promoted
// session is bit-identical to one that was never interrupted.
//
// Fencing: each session carries a generation (see journal.go). The
// owner stamps its generation on every shipped record, and the replica
// store rejects appends from a generation older than what it has seen
// — or, decisively, older than a *live* session under the same id,
// which is what a promoted node holds. A deposed owner that comes back
// from a partition therefore cannot ack another commit: its next ship
// is refused, the session fails closed on the zombie, and split-brain
// is structurally impossible as long as acked-before-visible holds.
//
// Degraded mode: if the follower is unreachable (not refusing — the
// transport failed), the owner keeps serving and marks the session's
// replication lagging rather than failing writes; the next successful
// ship is a full resync. This trades a window of single-copy
// durability for availability when the *follower* is the failed node.
// The supervisor only promotes from replica data that exists, so the
// window is visible (replica status lags) rather than silent.

// ReplicaPlanner maps a session id to the base URL of its follower
// ("" and false when the fleet has no distinct follower, e.g. a single
// member). Installed by the serving binary, which knows the ring; the
// engine itself stays ignorant of fleet topology. Implementations must
// be safe for concurrent use.
type ReplicaPlanner func(sessionID string) (addr string, ok bool)

// SetReplicaPlanner installs (or, with nil, clears) the follower
// planner and rewires every session so its next commit re-plans
// against the new topology.
func (e *Engine) SetReplicaPlanner(fn ReplicaPlanner) {
	e.replPlanner.Store(&fn)
	e.RewireReplicas()
}

// RewireReplicas drops every session's cached follower assignment; the
// next commit of each session consults the planner afresh and performs
// a full resync to whatever follower it names. Called after fleet
// membership changes.
func (e *Engine) RewireReplicas() {
	for _, s := range e.liveSessions() {
		s.mu.Lock()
		s.repl = nil
		s.mu.Unlock()
	}
}

// replicator is one session's replication state. Guarded by the
// session mutex.
type replicator struct {
	addr string // follower base URL; "" means the planner found none
	// synced reports that the follower holds the full history through
	// the last acked append; false forces a full resync (create record
	// plus the complete op history) on the next ship.
	synced bool
	// lagging marks degraded mode: the last ship failed in transport,
	// the local commit was acked anyway, and durability is single-copy
	// until a ship succeeds again.
	lagging bool
	// lagOps counts commits acked locally but not by the follower — the
	// session's replication lag, exported as a per-session gauge. Zero
	// while synced.
	lagOps int
}

// replicate ships the just-committed journal tail to the session's
// follower. Called under the session mutex, after the local fsync
// succeeded — the caller's response is not sent until this returns, so
// an acked operation is on two disks (or the session is explicitly
// lagging). A refused ship (stale generation) fails the session
// closed: the refusal proves a newer generation owns the session
// elsewhere, and this node must stop acking.
func (e *Engine) replicate(ctx context.Context, s *Session) error {
	if s.jl == nil {
		return nil
	}
	if s.repl == nil {
		p := e.replPlanner.Load()
		if p == nil || *p == nil {
			return nil
		}
		addr, ok := (*p)(s.id)
		if !ok {
			// Remember the no-follower answer so a single-member fleet
			// does not consult the planner on every commit; RewireReplicas
			// clears it when topology changes.
			s.repl = &replicator{}
			return nil
		}
		s.repl = &replicator{addr: addr}
	}
	if s.repl.addr == "" {
		return nil
	}

	sc := obsv.FromContext(ctx)
	var recs []journalRecord
	resync := !s.repl.synced
	if s.repl.synced {
		recs = s.jl.ops[len(s.jl.ops)-1:]
	} else {
		recs = append([]journalRecord{s.jl.createRecord()}, s.jl.ops...)
	}
	start := e.tel.Now()
	err := e.shipSpan(ctx, sc, s.repl.addr, s.id, recs)
	if errors.Is(err, ErrReplicaGap) && s.repl.synced {
		// The follower lost state (restart, wipe); resync the full
		// history once and retry.
		s.repl.synced = false
		resync = true
		recs = append([]journalRecord{s.jl.createRecord()}, s.jl.ops...)
		err = e.shipSpan(ctx, sc, s.repl.addr, s.id, recs)
	}
	switch {
	case err == nil:
		if e.tel != nil {
			if resync {
				e.tel.ReplicaResync.Observe(e.tel.Seconds(start))
			} else {
				e.tel.ReplicaAckLatency.Observe(e.tel.Seconds(start))
			}
		}
		if s.repl.lagging {
			e.tel.ReplicaLag(s.id).Set(0)
			s.repl.lagOps = 0
			e.tel.Emit("repl.recovered", s.id, sc.TraceContext().TraceID,
				map[string]any{"follower": s.repl.addr})
		}
		s.repl.synced = true
		s.repl.lagging = false
		e.replShips.Inc()
		return nil
	case errors.Is(err, ErrStaleGeneration):
		// A newer generation of this session is live elsewhere: this
		// node was deposed while partitioned. Fail closed immediately —
		// acking even one more commit here would fork history.
		s.broken = true
		e.replFenced.Inc()
		e.tel.Emit("session.fenced", s.id, sc.TraceContext().TraceID,
			map[string]any{"gen": s.gen, "reason": "stale generation: a newer generation is live elsewhere"})
		return fmt.Errorf("engine: session %s fenced out (a newer generation is live elsewhere): %w", s.id, err)
	case errors.Is(err, ErrReplicaGap):
		// A gap that survives a full resync is a deliberate refusal, not
		// lost state: the follower is mid-promotion of this very session.
		// Treating it as transport (ack locally, lag) would let this
		// commit vanish from the promoted timeline — fail closed instead.
		s.broken = true
		e.replFenced.Inc()
		e.tel.Emit("session.fenced", s.id, sc.TraceContext().TraceID,
			map[string]any{"gen": s.gen, "reason": "follower is promoting this session"})
		return fmt.Errorf("engine: session %s fenced out (follower is promoting it): %w", s.id, err)
	default:
		// Transport-level failure: the follower is down or unreachable,
		// not refusing. Stay available, mark the lag, resync when it
		// returns.
		if !s.repl.lagging {
			e.tel.Emit("repl.degraded", s.id, sc.TraceContext().TraceID,
				map[string]any{"follower": s.repl.addr, "err": err.Error()})
		}
		s.repl.synced = false
		s.repl.lagging = true
		s.repl.lagOps++
		e.tel.ReplicaLag(s.id).Set(float64(s.repl.lagOps))
		e.replDegraded.Inc()
		return nil
	}
}

// shipSpan wraps one ship in a cross-process hop span: the follower
// receives the hop's child span id in the X-Phasetune-Trace header and
// records it as its root span's parent. Untraced requests (nil sc) pay
// one pointer check and send no header.
func (e *Engine) shipSpan(ctx context.Context, sc *obsv.SpanCtx, addr, id string, recs []journalRecord) error {
	tc, end := sc.SpanLink("repl", "replica.ship")
	err := e.ship(ctx, tc, addr, id, recs)
	if sc != nil {
		end(map[string]any{"follower": addr, "records": len(recs), "ok": err == nil})
	} else {
		end(nil)
	}
	return err
}

// ship POSTs records as ndjson to the follower's replica-append
// endpoint, carrying tc in the X-Phasetune-Trace header when the hop
// is traced. Refusals (stale generation, sequence gap) come back as
// typed errors; anything else is a transport failure.
func (e *Engine) ship(ctx context.Context, tc obsv.TraceContext, addr, id string, recs []journalRecord) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("engine: encode replica batch: %w", err)
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		addr+"/v1/replica/"+id+"/append", &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if h := tc.Header(); h != "" {
		req.Header.Set(obsv.TraceHeader, h)
	}
	resp, err := e.replClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusForbidden:
		return fmt.Errorf("%w: follower said %s", ErrStaleGeneration, strings.TrimSpace(string(body)))
	case http.StatusConflict:
		return fmt.Errorf("%w: follower said %s", ErrReplicaGap, strings.TrimSpace(string(body)))
	default:
		return fmt.Errorf("engine: replica append to %s: status %d: %s",
			addr, resp.StatusCode, strings.TrimSpace(string(body)))
	}
}

// Typed replica-append refusals, mapped to HTTP 403/409 by the server
// and back again by ship.
var (
	// ErrStaleGeneration refuses records from a generation older than
	// the session's — the shipping owner has been deposed.
	ErrStaleGeneration = errors.New("engine: replica append from a stale generation")
	// ErrReplicaGap refuses records that do not extend the replica's
	// sequence contiguously; the owner reacts with a full resync.
	ErrReplicaGap = errors.New("engine: replica append out of sequence")
	// ErrNoReplica reports a promotion request for a session this node
	// holds no replica of.
	ErrNoReplica = errors.New("engine: no replica journal for session")
)

// replicaStore holds the replica journals this node keeps on behalf of
// sessions owned elsewhere, under <journalDir>/replica/. One file per
// session, every append fsync'd before it is acked — the ack is the
// owner's durability guarantee.
type replicaStore struct {
	dir string
	mu  sync.Mutex
	// sessions tracks open replica files; absent entries are re-opened
	// from disk on demand (a restarted follower answers with a gap,
	// which triggers a full resync from the owner).
	sessions map[string]*replicaState
	// promoting marks ids mid-promotion: appends are refused (as a gap)
	// while the replica file is being installed as a live journal, so a
	// deposed owner's resync cannot recreate replica state that the
	// promotion would silently orphan.
	promoting map[string]bool
}

type replicaState struct {
	// mu serializes writes to this session's replica file, so the
	// store-wide lock is never held across an fsync: appends to
	// different sessions sync in parallel, and a promotion only waits
	// out the one in-flight append that touches its own file.
	mu  sync.Mutex
	f   *os.File
	seq int64
	gen uint64
}

func newReplicaStore(journalDir string) *replicaStore {
	return &replicaStore{
		dir:       filepath.Join(journalDir, "replica"),
		sessions:  map[string]*replicaState{},
		promoting: map[string]bool{},
	}
}

func replicaPath(dir, id string) string { return filepath.Join(dir, id+".journal") }

// ReplicaSession is one replica journal's status.
type ReplicaSession struct {
	ID  string `json:"id"`
	Seq int64  `json:"seq"`
	Gen uint64 `json:"gen"`
}

// AppendReplica stores a batch of journal records shipped by a
// session's owner. A leading create record resets the replica file (a
// full resync); every other record must extend the sequence
// contiguously and carry a generation no older than both the replica's
// high-water mark and any live session under the same id — the live
// check is the fence that stops a deposed owner from acking through
// its old follower after that follower was promoted. The batch is
// written with a single fsync before the ack.
func (e *Engine) AppendReplica(ctx context.Context, id string, recs []journalRecord) (int64, error) {
	if e.replicas == nil {
		return 0, fmt.Errorf("engine: replication needs a journal directory")
	}
	if err := ValidateSessionID(id); err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		return 0, fmt.Errorf("engine: empty replica batch for %s", id)
	}
	var batchGen uint64
	for _, rec := range recs {
		if rec.Gen > batchGen {
			batchGen = rec.Gen
		}
	}

	rs := e.replicas
	rs.mu.Lock()
	// The fence, checked under the store lock so it is ordered against
	// PromoteReplica: a live local session under this id means this
	// node owns (or was promoted to own) the session, and records from
	// an older generation are a deposed owner still trying to commit.
	if s, ok := e.Session(id); ok {
		if live, _ := s.replState(); live > batchGen {
			rs.mu.Unlock()
			e.replRejects.Inc()
			e.tel.Emit("repl.fenced", id, obsv.FromContext(ctx).TraceContext().TraceID,
				map[string]any{"live_gen": live, "batch_gen": batchGen, "reason": "session live here"})
			return 0, fmt.Errorf("%w: session %s is live here at generation %d, batch carries %d",
				ErrStaleGeneration, id, live, batchGen)
		}
	}
	if rs.promoting[id] {
		rs.mu.Unlock()
		e.replRejects.Inc()
		return 0, fmt.Errorf("%w: replica of %s is being promoted", ErrReplicaGap, id)
	}
	st := rs.sessions[id]

	if st != nil && batchGen < st.gen {
		rs.mu.Unlock()
		e.replRejects.Inc()
		e.tel.Emit("repl.fenced", id, obsv.FromContext(ctx).TraceContext().TraceID,
			map[string]any{"live_gen": st.gen, "batch_gen": batchGen, "reason": "replica has seen a newer generation"})
		return 0, fmt.Errorf("%w: replica of %s has seen generation %d, batch carries %d",
			ErrStaleGeneration, id, st.gen, batchGen)
	}

	if recs[0].T == "create" {
		// Full resync: the owner resends history from the top. Truncate
		// whatever this replica held — the owner's journal is the
		// authority on content, the replica only guards gen and seq.
		if st != nil {
			st.mu.Lock() // wait out an in-flight append to the old file
			_ = st.f.Close()
			st.mu.Unlock()
			delete(rs.sessions, id)
		}
		if err := os.MkdirAll(rs.dir, 0o755); err != nil {
			rs.mu.Unlock()
			return 0, fmt.Errorf("engine: replica dir: %w", err)
		}
		f, err := os.OpenFile(replicaPath(rs.dir, id), os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
		if err != nil {
			rs.mu.Unlock()
			return 0, fmt.Errorf("engine: open replica %s: %w", id, err)
		}
		if err := fsutil.SyncDir(rs.dir); err != nil {
			_ = f.Close()
			rs.mu.Unlock()
			return 0, err
		}
		st = &replicaState{f: f}
		rs.sessions[id] = st
	} else if st == nil {
		// No open state (fresh process or never synced): demand a full
		// resync rather than guessing at the file's tail.
		rs.mu.Unlock()
		return 0, fmt.Errorf("%w: no replica state for %s; resync from create", ErrReplicaGap, id)
	}

	// Write and fsync under the session's own lock only: the store lock
	// is released first so appends to other sessions (and promotions of
	// them) never queue behind this file's sync.
	st.mu.Lock()
	rs.mu.Unlock()
	defer st.mu.Unlock()

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	seq, gen := st.seq, st.gen
	for i, rec := range recs {
		if rec.T == "create" {
			if i != 0 {
				return 0, fmt.Errorf("engine: replica batch for %s: create record not first", id)
			}
		} else {
			if rec.Seq != seq+1 {
				e.replRejects.Inc()
				return 0, fmt.Errorf("%w: replica of %s at seq %d, record carries %d",
					ErrReplicaGap, id, seq, rec.Seq)
			}
			seq = rec.Seq
		}
		if rec.Gen > gen {
			gen = rec.Gen
		}
		if err := enc.Encode(rec); err != nil {
			return 0, fmt.Errorf("engine: encode replica record: %w", err)
		}
	}
	if _, err := st.f.Write(buf.Bytes()); err != nil {
		return 0, fmt.Errorf("engine: append replica %s: %w", id, err)
	}
	//lint:allow lockorder the per-file lock exists to order this file's write+fsync; store-wide lock is already released
	if err := st.f.Sync(); err != nil {
		return 0, fmt.Errorf("engine: fsync replica %s: %w", id, err)
	}
	st.seq, st.gen = seq, gen
	e.replAccepts.Inc()
	return st.seq, nil
}

// ReplicaStatus lists the replica journals this node holds, in stable
// id order.
func (e *Engine) ReplicaStatus() []ReplicaSession {
	if e.replicas == nil {
		return nil
	}
	rs := e.replicas
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]ReplicaSession, 0, len(rs.sessions))
	for id, st := range rs.sessions {
		out = append(out, ReplicaSession{ID: id, Seq: st.seq, Gen: st.gen})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PromotedSession reports one session taken over via PromoteReplica.
type PromotedSession struct {
	ID         string `json:"id"`
	Iterations int    `json:"iterations"`
	Epoch      int    `json:"epoch"`
	Gen        uint64 `json:"gen"`
}

// PromoteReplica turns a replica journal this node holds into a live
// session: the replica file moves into the journal directory, the
// ordinary recovery replay reconstructs the session bit-identically,
// and a generation record at max(minGen, seen+1) is journaled so every
// subsequent commit is fenced above the deposed owner. Idempotent: a
// repeated promotion of an already-live session at or above minGen
// reports the live state. ctx only carries the caller's trace span
// (the promotion itself is local and must run to completion once
// started); the promoted event is stamped with its trace id.
func (e *Engine) PromoteReplica(ctx context.Context, id string, minGen uint64) (PromotedSession, error) {
	if e.closed.Load() {
		return PromotedSession{}, ErrClosed
	}
	if e.replicas == nil || e.journalDir == "" {
		return PromotedSession{}, fmt.Errorf("engine: promotion needs a journal directory")
	}
	if err := ValidateSessionID(id); err != nil {
		return PromotedSession{}, err
	}
	if s, ok := e.Session(id); ok {
		s.mu.Lock()
		live := s.gen
		iters, epoch := len(s.actions), s.epoch
		s.mu.Unlock()
		if live >= minGen {
			return PromotedSession{ID: id, Iterations: iters, Epoch: epoch, Gen: live}, nil
		}
		return PromotedSession{}, fmt.Errorf("engine: session %s already live at generation %d (< requested %d)", id, live, minGen)
	}

	rs := e.replicas
	rs.mu.Lock()
	if rs.promoting[id] {
		rs.mu.Unlock()
		return PromotedSession{}, fmt.Errorf("engine: promotion of %s already in progress", id)
	}
	rs.promoting[id] = true
	if st := rs.sessions[id]; st != nil {
		st.mu.Lock() // wait out an in-flight append before closing
		_ = st.f.Close()
		st.mu.Unlock()
		delete(rs.sessions, id)
	}
	rs.mu.Unlock()
	defer func() {
		rs.mu.Lock()
		delete(rs.promoting, id)
		rs.mu.Unlock()
	}()

	// The file ops below block (fsync, rename); they run outside the
	// store lock, and the promoting marker keeps a concurrent resync from
	// recreating replica state that this install would silently orphan.
	src := replicaPath(rs.dir, id)
	f, err := os.Open(src)
	if err != nil {
		if os.IsNotExist(err) {
			return PromotedSession{}, fmt.Errorf("%w: %s", ErrNoReplica, id)
		}
		return PromotedSession{}, fmt.Errorf("engine: open replica for %s: %w", id, err)
	}
	// The replica file was fsync'd per append, but sync once more so the
	// rename publishes fully-durable content.
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return PromotedSession{}, fmt.Errorf("engine: fsync replica %s: %w", id, err)
	}
	_ = f.Close()
	// Clear any stale local remnants of a previous incarnation: the
	// replica is the authoritative history now.
	if err := os.Remove(snapshotPath(e.journalDir, id)); err != nil && !os.IsNotExist(err) {
		return PromotedSession{}, fmt.Errorf("engine: drop stale snapshot for %s: %w", id, err)
	}
	if err := os.Rename(src, journalPath(e.journalDir, id)); err != nil {
		return PromotedSession{}, fmt.Errorf("engine: install replica journal for %s: %w", id, err)
	}
	if err := fsutil.SyncDir(e.journalDir); err != nil {
		return PromotedSession{}, err
	}

	st, err := loadSessionState(e.journalDir, id)
	if err != nil {
		return PromotedSession{}, err
	}
	s, err := e.buildSession(st.cfg.sessionConfig())
	if err != nil {
		return PromotedSession{}, fmt.Errorf("engine: rebuild session %s: %w", id, err)
	}
	s.id = id
	if err := e.replaySession(s, st.ops); err != nil {
		return PromotedSession{}, fmt.Errorf("engine: replay session %s: %w", id, err)
	}
	jl, err := reopenJournal(e.journalDir, st, e.snapEvery, e.tel)
	if err != nil {
		return PromotedSession{}, err
	}
	newGen := st.gen + 1
	if newGen < minGen {
		newGen = minGen
	}
	if newGen < 2 {
		newGen = 2 // v1 replicas recover as gen 1; promotion always moves past the owner
	}
	jl.gen = newGen
	if err := jl.append(journalRecord{T: "gen", Gen: newGen}); err != nil {
		_ = jl.f.Close()
		return PromotedSession{}, fmt.Errorf("engine: journal generation bump for %s: %w", id, err)
	}
	s.jl = jl
	s.gen = newGen

	e.mu.Lock()
	if _, taken := e.sessions[id]; taken {
		e.mu.Unlock()
		_ = jl.f.Close()
		return PromotedSession{}, fmt.Errorf("engine: session %q appeared during promotion", id)
	}
	e.sessions[id] = s
	if n, ok := sessionNum(id); ok && n > e.nextID {
		e.nextID = n
	}
	e.mu.Unlock()
	e.replPromotions.Inc()
	if e.tel != nil {
		e.tel.RecoverySessions.Inc()
		e.tel.RecoveryReplayedOps.Add(float64(len(st.ops)))
	}
	e.tel.Emit("session.promoted", id, obsv.FromContext(ctx).TraceContext().TraceID,
		map[string]any{"gen": newGen, "iterations": len(s.actions), "replayed_ops": len(st.ops)})
	return PromotedSession{ID: id, Iterations: len(s.actions), Epoch: s.epoch, Gen: newGen}, nil
}

// replState reads the session's generation and whether its replication
// is lagging (degraded, single-copy), under its lock.
func (s *Session) replState() (gen uint64, lagging bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen, s.repl != nil && s.repl.lagging
}

// Generation exposes the session's current generation (tests, status).
func (e *Engine) Generation(id string) (uint64, bool) {
	s, ok := e.Session(id)
	if !ok {
		return 0, false
	}
	gen, _ := s.replState()
	return gen, true
}

// ReplicationLagging reports whether the session is in degraded
// (single-copy) replication mode.
func (e *Engine) ReplicationLagging(id string) bool {
	s, ok := e.Session(id)
	if !ok {
		return false
	}
	_, lagging := s.replState()
	return lagging
}
