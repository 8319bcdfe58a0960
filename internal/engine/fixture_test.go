package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureID names the session recorded in testdata/fixture.journal.
const fixtureID = "fx"

// fixtureJournal is the pinned journal: fixtureScript's output as
// written by the engine before step, batch and stream shared one
// commit path. It covers every record type — create, keyed and unkeyed
// step, batch, abort, spropose with a partial scommit run, epoch and
// gen — so a change to how any of them is written or replayed shows up
// here. Never regenerate it to make a test pass: a difference is a
// journal format change.
const fixtureJournal = "testdata/fixture.journal"

// fixtureScript drives one session through every journal record type
// and returns the final journal bytes of the promoted node together
// with the live session's result. Workers is 1 and the scenario tiny,
// so every proposal, lie and cache-hit flag is a pure function of the
// script.
//
//  1. Owner: create, keyed step, aborted step (the only pool slot is
//     held and the step's context is already cancelled), unkeyed step,
//     keyed batch of 3, keyed stream of 3.
//  2. Crash after the stream's second scommit: the journal file is
//     closed without a snapshot and its final scommit line dropped.
//  3. Recovered owner: keyed epoch advance, unkeyed step; crash again.
//  4. A second node receives the owner's journal as a replica,
//     promotes it (gen record at generation 2) and steps once more.
func fixtureScript(t *testing.T, root string) ([]byte, SessionResult) {
	t.Helper()
	ctx := context.Background()
	opts := func(dir string) Options {
		return Options{Workers: 1, JournalDir: dir, SnapshotEvery: 1 << 20}
	}
	ownerDir, promotedDir := filepath.Join(root, "owner"), filepath.Join(root, "promoted")

	owner := NewWithOptions(opts(ownerDir))
	if _, err := owner.CreateSession(SessionConfig{
		ID: fixtureID, ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 7, Tiles: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := owner.step(ctx, fixtureID, "k-step"); err != nil {
		t.Fatal(err)
	}
	block, started, released := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		_ = owner.pool.DoCtx(ctx, func() { close(started); <-block })
		close(released)
	}()
	<-started
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := owner.StepCtx(cancelled, fixtureID); err == nil {
		t.Fatal("a step waiting on a held pool slot with a cancelled context must fail")
	}
	close(block)
	<-released
	if _, err := owner.StepCtx(ctx, fixtureID); err != nil {
		t.Fatal(err)
	}
	if _, _, err := owner.BatchStepIdem(ctx, fixtureID, 3, "k-batch"); err != nil {
		t.Fatal(err)
	}
	if n, _, err := owner.StreamBatchStepIdem(ctx, fixtureID, 3, "k-stream", nil, func(StepResult) {}); err != nil || n != 3 {
		t.Fatalf("stream: %d steps, err %v", n, err)
	}
	crashJournal(t, owner)
	path := journalPath(ownerDir, fixtureID)
	lines := journalLines(t, path)
	if last := lines[len(lines)-1]; !strings.Contains(last, `"t":"scommit"`) {
		t.Fatalf("journal ends with %q, want the stream's last scommit", last)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines[:len(lines)-1], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	recovered := NewWithOptions(opts(ownerDir))
	if _, err := recovered.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := recovered.AdvanceEpochIdem(ctx, fixtureID, "k-epoch"); err != nil {
		t.Fatal(err)
	}
	if _, err := recovered.StepCtx(ctx, fixtureID); err != nil {
		t.Fatal(err)
	}
	crashJournal(t, recovered)

	var recs []journalRecord
	for _, line := range journalLines(t, path) {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	promoted := NewWithOptions(opts(promotedDir))
	if _, err := promoted.AppendReplica(ctx, fixtureID, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := promoted.PromoteReplica(ctx, fixtureID, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := promoted.StepCtx(ctx, fixtureID); err != nil {
		t.Fatal(err)
	}
	res, err := promoted.Result(fixtureID)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journalPath(promotedDir, fixtureID))
	if err != nil {
		t.Fatal(err)
	}
	if err := promoted.Close(); err != nil {
		t.Fatal(err)
	}
	return data, res
}

// crashJournal closes the fixture session's journal file the way a
// crash leaves it: no final snapshot, only the fsync'd lines.
func crashJournal(t *testing.T, e *Engine) {
	t.Helper()
	s, ok := e.Session(fixtureID)
	if !ok {
		t.Fatalf("no session %q", fixtureID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.jl.f.Close(); err != nil {
		t.Fatal(err)
	}
	s.jl = nil
}

// journalLines reads a journal file as its non-empty lines.
func journalLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(data)), "\n")
}

// fixtureRecords parses the pinned journal.
func fixtureRecords(t testing.TB) ([]byte, []journalRecord) {
	t.Helper()
	data, err := os.ReadFile(fixtureJournal)
	if err != nil {
		t.Fatal(err)
	}
	var recs []journalRecord
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return data, recs
}

// recordSteps rebuilds the responses a committed record produced.
func recordSteps(rec journalRecord) []StepResult {
	out := make([]StepResult, len(rec.Actions))
	for i, a := range rec.Actions {
		out[i] = StepResult{Iter: rec.Iter + i, Action: a, Duration: rec.Obs[i], Sim: rec.Sims[i], CacheHit: rec.Hits[i]}
	}
	return out
}

// repeatsAction reports whether a record proposes some action twice.
func repeatsAction(rec journalRecord) bool {
	seen := map[int]bool{}
	for _, a := range rec.Actions {
		if seen[a] {
			return true
		}
		seen[a] = true
	}
	return false
}

// TestRecoverJournalFixture pins the journal format: the fixture
// recovers bit-identically, every keyed op in it replays its journaled
// response, and fixtureScript on this engine writes the same records
// byte for byte. One exclusion: the fixture's batch proposes action 8
// twice, and which of its two evaluations computes and which joins it
// in the cache singleflight is goroutine timing, so the cache-hit flags
// of a record that repeats an action are not compared.
func TestRecoverJournalFixture(t *testing.T) {
	data, recs := fixtureRecords(t)

	written, live := fixtureScript(t, t.TempDir())
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	got := strings.Split(strings.TrimSpace(string(written)), "\n")
	if len(got) != len(want) {
		t.Fatalf("script wrote %d records, fixture has %d:\n%s", len(got), len(want), written)
	}
	for i := range want {
		if got[i] == want[i] {
			continue
		}
		var g journalRecord
		if err := json.Unmarshal([]byte(got[i]), &g); err != nil {
			t.Fatal(err)
		}
		w := recs[i]
		if repeatsAction(w) {
			g.Hits, w.Hits = nil, nil
		}
		gb, _ := json.Marshal(g)
		wb, _ := json.Marshal(w)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("record %d differs from the fixture:\n got %s\nwant %s", i, got[i], want[i])
		}
	}

	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir, fixtureID), data, 0o644); err != nil {
		t.Fatal(err)
	}
	e := NewWithOptions(Options{Workers: 1, JournalDir: dir, SnapshotEvery: 1 << 20})
	defer e.Close()
	if _, err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	res, err := e.Result(fixtureID)
	if err != nil {
		t.Fatal(err)
	}
	var actions []int
	var durations []float64
	for _, rec := range recs {
		if rec.T == "step" || rec.T == "batch" || rec.T == "scommit" {
			actions = append(actions, rec.Actions...)
			durations = append(durations, rec.Obs...)
		}
	}
	if len(res.Actions) != len(actions) || res.Epoch != 1 {
		t.Fatalf("recovered %d iterations at epoch %d, fixture holds %d at epoch 1", len(res.Actions), res.Epoch, len(actions))
	}
	for i := range actions {
		if res.Actions[i] != actions[i] || math.Float64bits(res.Durations[i]) != math.Float64bits(durations[i]) {
			t.Fatalf("iter %d: recovered (%d, %v), fixture (%d, %v)", i, res.Actions[i], res.Durations[i], actions[i], durations[i])
		}
	}
	sameResult(t, "recovered fixture vs live script", live, res)
	if gen, _ := e.Generation(fixtureID); gen != 2 {
		t.Fatalf("recovered generation %d, want 2", gen)
	}

	ctx := context.Background()
	keyed := 0
	for i, rec := range recs {
		if rec.Key == "" {
			continue
		}
		keyed++
		var want, got []StepResult
		var replayed bool
		var err error
		switch rec.T {
		case "step":
			var r StepResult
			r, replayed, err = e.step(ctx, fixtureID, rec.Key)
			want, got = recordSteps(rec), []StepResult{r}
		case "batch":
			got, replayed, err = e.BatchStepIdem(ctx, fixtureID, rec.K, rec.Key)
			want = recordSteps(rec)
		case "spropose":
			_, replayed, err = e.StreamBatchStepIdem(ctx, fixtureID, rec.K, rec.Key, nil,
				func(r StepResult) { got = append(got, r) })
			for _, c := range recs[i+1:] {
				if c.T != "scommit" {
					break
				}
				want = append(want, recordSteps(c)...)
			}
		case "epoch":
			var epoch int
			epoch, replayed, err = e.AdvanceEpochIdem(ctx, fixtureID, rec.Key)
			if err == nil && epoch != rec.Epoch {
				t.Fatalf("key %q replayed epoch %d, journal says %d", rec.Key, epoch, rec.Epoch)
			}
		default:
			t.Fatalf("record %d: keyed %q record", i, rec.T)
		}
		if err != nil || !replayed {
			t.Fatalf("key %q (%s): replayed=%v err=%v", rec.Key, rec.T, replayed, err)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("key %q replayed\n%s\nwant\n%s", rec.Key, gb, wb)
		}
	}
	if keyed != 4 {
		t.Fatalf("fixture holds %d keyed ops, want step, batch, stream and epoch", keyed)
	}
	after, err := e.Result(fixtureID)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "replays must not mutate", res, after)
}

// FuzzLoadSessionState feeds arbitrary bytes to journal loading as a
// session's journal file. Loading must never panic, must reject a
// malformed line anywhere but the end (only the last line can be torn
// by a crash), and whatever it accepts must replay without panicking.
func FuzzLoadSessionState(f *testing.F) {
	data, _ := fixtureRecords(f)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	join := func(ls ...string) []byte { return []byte(strings.Join(ls, "\n") + "\n") }
	v1 := make([]string, 0, len(lines))
	for _, l := range lines {
		if strings.Contains(l, `"t":"gen"`) {
			break // v1 journals predate generations
		}
		l = strings.Replace(l, `"v":2,`, "", 1)
		l = strings.Replace(l, `"gen":1,`, "", 1)
		v1 = append(v1, l)
	}
	for _, seed := range [][]byte{
		data, // v2: every record type, gen record included
		append(append([]byte(nil), data...), `{"t":"step","seq":12,"gen":2,"act`...), // torn tail
		join(v1...),        // v1: no version, no generations
		join(lines[:2]...), // v2 create and one step
		join(strings.Replace(lines[0], `"v":2`, `"v":3`, 1), lines[1]), // future version
		join(lines[0], lines[1], `{"t":"abort","seq":2,`, lines[3]),    // corrupt mid-file
		join(lines[0], lines[1], lines[3]),                             // sequence gap
		join(`{"t":"create","v":2,"gen":1}`, lines[1]),                 // create without config
		join(lines[1:]...), // no create record
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(journalPath(dir, fixtureID), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := loadSessionState(dir, fixtureID)
		var nonEmpty []string
		for _, l := range strings.Split(string(data), "\n") {
			if l = strings.TrimSpace(l); l != "" {
				nonEmpty = append(nonEmpty, l)
			}
		}
		for i, l := range nonEmpty {
			var rec journalRecord
			if i < len(nonEmpty)-1 && json.Unmarshal([]byte(l), &rec) != nil && err == nil {
				t.Fatalf("accepted a journal whose line %d is malformed: %q", i, l)
			}
		}
		if err != nil {
			return
		}
		e := New(1)
		s, err := e.buildSession(st.cfg.sessionConfig())
		if err != nil {
			return
		}
		s.id = fixtureID
		_ = e.replaySession(s, st.ops)
	})
}
