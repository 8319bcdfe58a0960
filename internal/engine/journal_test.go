package engine

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stepScript drives a session through a fixed mixed op sequence and
// returns the result. The sequence exercises sequential steps,
// speculative batches (whose lies depend on cache state) and an epoch
// advance.
func stepScript(t *testing.T, e *Engine, id string) SessionResult {
	t.Helper()
	if _, err := e.Step(id); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BatchStep(id, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AdvanceEpoch(id); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(id); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BatchStep(id, 2); err != nil {
		t.Fatal(err)
	}
	res, err := e.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameResult(t *testing.T, tag string, a, b SessionResult) {
	t.Helper()
	if a.Iterations != b.Iterations || a.Epoch != b.Epoch {
		t.Fatalf("%s: iterations/epoch (%d, %d) vs (%d, %d)",
			tag, a.Iterations, a.Epoch, b.Iterations, b.Epoch)
	}
	for i := range a.Actions {
		if a.Actions[i] != b.Actions[i] {
			t.Fatalf("%s iter %d: action %d vs %d", tag, i, a.Actions[i], b.Actions[i])
		}
		if a.Durations[i] != b.Durations[i] {
			t.Fatalf("%s iter %d: duration %v vs %v (not bit-for-bit)",
				tag, i, a.Durations[i], b.Durations[i])
		}
	}
	if a.Total != b.Total || a.BestAction != b.BestAction ||
		a.BestSim != b.BestSim || a.Regret != b.Regret {
		t.Fatalf("%s: summary (%v, %d, %v, %v) vs (%v, %d, %v, %v)",
			tag, a.Total, a.BestAction, a.BestSim, a.Regret,
			b.Total, b.BestAction, b.BestSim, b.Regret)
	}
}

// TestRecoverBitIdentical is the durability invariant in-process: a
// journaled session abandoned without any shutdown (the crash model —
// only fsync'd bytes survive) recovers into a fresh engine with
// identical state, and the recovered session's further trajectory is
// bit-for-bit the trajectory the uninterrupted session produces.
func TestRecoverBitIdentical(t *testing.T) {
	dir := t.TempDir()
	live := NewWithOptions(Options{Workers: 4, JournalDir: dir, SnapshotEvery: 4})
	s, err := live.CreateSession(SessionConfig{
		ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 42, Tiles: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := stepScript(t, live, s.id)

	// "Crash": no Close, no flush. Recover from disk alone.
	rec := NewWithOptions(Options{Workers: 2, JournalDir: dir, SnapshotEvery: 4})
	infos, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != s.id || infos[0].Epoch != 1 {
		t.Fatalf("recover infos %+v", infos)
	}
	after, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "recovered state", before, after)

	// Continue both engines with the same ops: batches draw constant-liar
	// hints from the cache, so this also proves the recovery rewarmed the
	// shared cache to the uninterrupted engine's view.
	for _, e := range []*Engine{live, rec} {
		if _, err := e.BatchStep(s.id, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Step(s.id); err != nil {
			t.Fatal(err)
		}
	}
	liveRes, err := live.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	recRes, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "continued trajectory", liveRes, recRes)

	// A new session on the recovered engine picks a fresh ID.
	s2, err := rec.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "DC", Seed: 1, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s2.id == s.id {
		t.Fatalf("recovered engine reissued ID %s", s.id)
	}
}

// TestRecoverAfterGracefulClose: Close flushes a final snapshot, so
// recovery replays a zero-length journal tail.
func TestRecoverAfterGracefulClose(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	s, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "DC", Seed: 9, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := stepScript(t, e, s.id)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(s.id); err == nil {
		t.Fatal("step after Close should fail")
	}

	rec := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	infos, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ReplayedTail != 0 {
		t.Fatalf("after graceful close the journal tail must be empty: %+v", infos)
	}
	after, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "graceful close", before, after)
}

// TestRecoverRemovesStaleSnapshotTemp: a crash inside a snapshot's
// atomic write leaves its temp file behind; recovery deletes it and
// restores the session from the files the write never replaced.
func TestRecoverRemovesStaleSnapshotTemp(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	s, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "DC", Seed: 5, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := stepScript(t, e, s.id)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	stale := snapshotPath(dir, s.id) + ".tmp-123456"
	if err := os.WriteFile(stale, []byte(`{"id":"`), 0o644); err != nil {
		t.Fatal(err)
	}

	rec := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	if _, err := rec.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale snapshot temp survived recovery: %v", err)
	}
	after, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "stale temp", before, after)
}

// TestRecoverTornTail: a crash mid-append leaves a partial final line;
// recovery drops it (that op never committed) and keeps everything
// before it.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(Options{Workers: 2, JournalDir: dir, SnapshotEvery: 100})
	s, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "DC", Seed: 3, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Step(s.id); err != nil {
			t.Fatal(err)
		}
	}
	before, err := e.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}

	jp := journalPath(dir, s.id)
	f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"step","seq":4,"epoch":0,"actions":[5],"si`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rec := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	if _, err := rec.Recover(); err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	after, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "torn tail", before, after)
}

// TestRecoverCorruptMiddle: a malformed record that is not the tail is
// corruption, not a torn append — recovery must refuse.
func TestRecoverCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(Options{Workers: 2, JournalDir: dir, SnapshotEvery: 100})
	s, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "DC", Seed: 3, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Step(s.id); err != nil {
			t.Fatal(err)
		}
	}
	jp := journalPath(dir, s.id)
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = "{garbage\n"
	if err := os.WriteFile(jp, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	rec := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	if _, err := rec.Recover(); err == nil {
		t.Fatal("corrupt middle record must fail recovery")
	}
}

// TestRecoverAbortedStep: an evaluation failure consumes strategy
// proposals without committing observations; the abort record makes
// recovery replay the identical strategy state.
func TestRecoverAbortedStep(t *testing.T) {
	dir := t.TempDir()
	live := NewWithOptions(Options{Workers: 1, JournalDir: dir})
	s, err := live.CreateSession(SessionConfig{
		ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 11, Tiles: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.Step(s.id); err != nil {
		t.Fatal(err)
	}

	// Occupy the single pool slot, then step with a cancelled context:
	// the slot wait fails deterministically and the step aborts after
	// the strategy already produced its proposal.
	block := make(chan struct{})
	started := make(chan struct{})
	go live.pool.Do(func() { close(started); <-block })
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := live.StepCtx(ctx, s.id); err == nil {
		t.Fatal("step with cancelled context under a saturated pool should fail")
	}
	close(block)

	// Continue the live session past the abort.
	for i := 0; i < 2; i++ {
		if _, err := live.Step(s.id); err != nil {
			t.Fatal(err)
		}
	}
	before, err := live.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}

	rec := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	if _, err := rec.Recover(); err != nil {
		t.Fatal(err)
	}
	after, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "post-abort", before, after)

	// And the recovered session keeps agreeing with the live one.
	for _, e := range []*Engine{live, rec} {
		if _, err := e.Step(s.id); err != nil {
			t.Fatal(err)
		}
	}
	liveRes, err := live.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	recRes, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "post-abort continuation", liveRes, recRes)
}

// TestSnapshotRotation: the journal is compacted every SnapshotEvery
// ops — the snapshot exists, the live journal holds at most the tail,
// and recovery still reproduces the session exactly.
func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(Options{Workers: 2, JournalDir: dir, SnapshotEvery: 2})
	s, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "DC", Seed: 5, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Step(s.id); err != nil {
			t.Fatal(err)
		}
	}
	before, err := e.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(snapshotPath(dir, s.id)); err != nil {
		t.Fatalf("snapshot missing after rotation: %v", err)
	}
	data, err := os.ReadFile(journalPath(dir, s.id))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n >= 5 {
		t.Fatalf("journal not truncated by rotation: %d records", n)
	}

	rec := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	infos, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ReplayedTail != 1 {
		t.Fatalf("want a 1-op tail after 5 ops at cadence 2: %+v", infos)
	}
	after, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "rotated", before, after)
}

// TestRecoverRequirements: recovery needs journaling and an empty
// engine; explicit scenarios are rejected up front when journaling.
func TestRecoverRequirements(t *testing.T) {
	if _, err := New(1).Recover(); err == nil {
		t.Fatal("Recover without a journal dir must fail")
	}

	dir := t.TempDir()
	e := NewWithOptions(Options{Workers: 1, JournalDir: dir})
	if _, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Tiles: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(); err == nil {
		t.Fatal("Recover on a non-empty engine must fail")
	}

	sc, ok := platformScenario("b")
	if !ok {
		t.Fatal("scenario b missing")
	}
	if _, err := e.CreateSession(SessionConfig{Scenario: &sc, Tiles: 4}); err == nil {
		t.Fatal("explicit scenario must be rejected when journaling")
	}

	// A journal file for a session whose config names a bogus scenario
	// must fail recovery loudly.
	bogus := filepath.Join(dir, "s9.journal")
	if err := os.WriteFile(bogus, []byte(`{"t":"create","config":{"scenario_key":"zz","strategy":"DC"}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := NewWithOptions(Options{Workers: 1, JournalDir: dir})
	if _, err := rec.Recover(); err == nil {
		t.Fatal("unknown scenario key in journal must fail recovery")
	}
}
