package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"phasetune/internal/core"
	"phasetune/internal/engine"
	"phasetune/internal/harness"
	"phasetune/internal/platform"
)

// The tune workload: the paper's online loop on an in-process engine
// with the library defaults (no telemetry, no journal). A fixed,
// seeded list of GP-discontinuous sessions, evenly spread over
// scenarios i, n and p (36, 75 and 128 nodes), is run by workers()
// closed-loop clients, cycling through the list until the window
// ends. The evaluation cache is prewarmed in setup, so steps are cache
// hits and the GP decision dominates them, while session create is
// dominated by the LP bound. With the even split the create p50 falls
// inside n's cluster and the p90 inside p's.
var tuneScenarios = []string{"i", "n", "p"}

const (
	tuneTiles       = 24
	tuneSteps       = 50
	tunePerScenario = 16
	tuneStrategy    = "GP-discontinuous"
)

type tuneEntry struct {
	key  string
	seed int64
}

// tuneList is the seeded session list: tunePerScenario sessions of each
// scenario, in tunePerScenario seeded permutations of (i, n, p). Every
// stretch of the list holds the scenarios in nearly equal numbers, so
// the seed changes which sessions run, not how much work the window
// holds.
func tuneList(seed int64) []tuneEntry {
	rng := rand.New(rand.NewSource(seed))
	var list []tuneEntry
	for i := 0; i < tunePerScenario; i++ {
		for _, j := range rng.Perm(len(tuneScenarios)) {
			list = append(list, tuneEntry{key: tuneScenarios[j], seed: rng.Int63n(1 << 40)})
		}
	}
	return list
}

// trajectory is what one session observed.
type trajectory struct {
	actions   []int
	durations []float64
	sims      []float64
}

func (t *trajectory) same(o *trajectory) bool {
	if len(t.actions) != len(o.actions) {
		return false
	}
	for i := range t.actions {
		if t.actions[i] != o.actions[i] ||
			math.Float64bits(t.durations[i]) != math.Float64bits(o.durations[i]) {
			return false
		}
	}
	return true
}

// timedStrategy decorates a core.Strategy, timing Next and Observe.
type timedStrategy struct {
	core.Strategy
	nextMS, observeMS []float64
}

func (s *timedStrategy) Next() int {
	t0 := time.Now()
	a := s.Strategy.Next()
	s.nextMS = append(s.nextMS, msSince(t0))
	return a
}

func (s *timedStrategy) Observe(action int, d float64) {
	t0 := time.Now()
	s.Strategy.Observe(action, d)
	s.observeMS = append(s.observeMS, msSince(t0))
}

// newStrategy builds the strategy an engine session of this scenario
// runs, around a precomputed LP bound.
func newStrategy(sc platform.Scenario, lp func(int) float64) (core.Strategy, error) {
	return harness.NewStrategy(tuneStrategy, core.Context{
		N:          sc.Platform.N(),
		Min:        sc.MinNodes,
		GroupSizes: sc.Platform.GroupSizes(),
		LP:         lp,
	})
}

// tuneSetup builds an engine and prewarms its evaluation cache with a
// sweep of every scenario. It returns the all-nodes makespan of each.
func tuneSetup() (_ *engine.Engine, _ map[string]float64, err error) {
	e := engine.New(workers())
	defer func() {
		if err != nil {
			_ = e.Close() // no journal: nothing to flush
		}
	}()
	allNodes := map[string]float64{}
	for _, k := range tuneScenarios {
		sc, err := scenario(k)
		if err != nil {
			return nil, nil, err
		}
		res, err := e.Sweep(sc, harness.SimOptions{Tiles: tuneTiles}, engine.SweepOptions{})
		if err != nil {
			return nil, nil, err
		}
		allNodes[k] = res.Points[len(res.Points)-1].Makespan
	}
	return e, allNodes, nil
}

func runTune(b *bench, seconds float64, tr *tracer) error {
	var e *engine.Engine
	var allNodes map[string]float64
	setups := make([]float64, setupReps)
	for i := range setups {
		if e != nil {
			_ = e.Close() // no journal: nothing to flush
		}
		t0 := time.Now()
		var err error
		e, allNodes, err = tuneSetup()
		if err != nil {
			return err
		}
		setups[i] = float64(time.Since(t0)) / 1e9
	}
	defer e.Close()
	b.set("setup_s", "s", percentile(setups, 0.5), len(setups))

	// The traced run times the LP bound of each scenario once and feeds
	// the mirror strategies with it.
	lps := map[string]func(int) float64{}
	if tr != nil {
		var lpMS []float64
		for _, k := range tuneScenarios {
			sc, err := scenario(k)
			if err != nil {
				return err
			}
			_, end := tr.start("lp.bound", 0, tr.newReq())
			t0 := time.Now()
			lp, err := harness.LPBound(sc, harness.SimOptions{Tiles: tuneTiles})
			lpMS = append(lpMS, msSince(t0))
			end()
			if err != nil {
				return err
			}
			lps[k] = lp
			b.note("tune: LP bound on %s (%d nodes) %.2f ms", k, sc.Platform.N(), lpMS[len(lpMS)-1])
		}
		b.set("lp.bound_ms", "ms", mean(lpMS), len(lpMS))
	}

	if err := b.startWindow(); err != nil {
		return err
	}
	list := tuneList(b.cfg.seed)
	tn := &tuneRun{b: b, e: e, tr: tr, lps: lps}
	var (
		next      atomic.Int64
		mu        sync.Mutex
		firstRun  = make([]*trajectory, len(list))
		createMS  []float64
		stepMS    []float64
		nextMS    []float64
		observeMS []float64
		selfMS    []float64
		steps     int
		end       time.Time
		slowest   float64
		start     = time.Now()
		deadline  = start.Add(time.Duration(seconds * float64(time.Second)))
		r0        = readRuntime()
		c0        = e.Cache().Stats()
		wg        sync.WaitGroup
	)
	// keep records the first trajectory of each list entry and checks
	// every later run of the entry against it.
	keep := func(k int, out *sessionOut) {
		slot := k % len(list)
		if firstRun[slot] == nil {
			firstRun[slot] = out.traj
			return
		}
		b.check(firstRun[slot].same(out.traj), "session t%d diverged from an earlier run of the same list entry", k)
	}
	loop := func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			k := int(next.Add(1) - 1)
			t0 := time.Now()
			out := tn.session(k, list[k%len(list)])
			now := time.Now()
			if out == nil {
				continue
			}
			mu.Lock()
			createMS = append(createMS, out.createMS)
			stepMS = append(stepMS, out.stepMS...)
			selfMS = append(selfMS, out.selfMS...)
			nextMS = append(nextMS, out.nextMS...)
			observeMS = append(observeMS, out.observeMS...)
			steps += len(out.stepMS)
			slowest = math.Max(slowest, now.Sub(t0).Seconds())
			if now.After(end) {
				end = now
			}
			keep(k, out)
			mu.Unlock()
		}
	}
	for c := 0; c < workers(); c++ {
		wg.Add(1)
		go loop()
	}
	wg.Wait()
	if err := b.endWindow(); err != nil {
		return err
	}
	window := end.Sub(start).Seconds()
	b.checkWindow("tune", window, seconds, slowest)
	r1 := readRuntime()
	c1 := e.Cache().Stats()

	b.set("work_per_s", "1/s", ratio{float64(steps), window}.value(), steps)
	b.set("call_p50_ms", "ms", percentile(stepMS, 0.5), len(stepMS))
	b.set("step_p50_ms", "ms", percentile(stepMS, 0.5), len(stepMS))
	b.set("step_p99_ms", "ms", percentile(stepMS, 0.99), len(stepMS))
	b.set("create_p50_ms", "ms", percentile(createMS, 0.5), len(createMS))
	b.set("create_p90_ms", "ms", percentile(createMS, 0.9), len(createMS))
	noteTail(b, "tune: step", stepMS)
	noteTail(b, "tune: create", createMS)
	hits := ratio{float64(c1.Hits - c0.Hits), float64(c1.Hits - c0.Hits + c1.Misses - c0.Misses)}
	b.set("engine.cache_hit_ratio", "ratio", hits.value(), int(hits.den))
	b.set("engine.cache_lookups", "count", hits.den, int(hits.den))
	b.set("runtime.gc_cpu_frac", "ratio", gcFrac(r0, r1).value(), 1)
	b.set("runtime.alloc_kb_per_step", "KB", ratio{(r1.allocBytes - r0.allocBytes) / 1024, float64(steps)}.value(), steps)
	if tr != nil {
		b.set("core.next_ms_p50", "ms", percentile(nextMS, 0.5), len(nextMS))
		b.set("core.next_ms_p99", "ms", percentile(nextMS, 0.99), len(nextMS))
		b.set("core.observe_ms", "ms", mean(observeMS), len(observeMS))
		b.set("engine.step_self_ms", "ms", percentile(selfMS, 0.5), len(selfMS))
	}
	b.note("tune: %d sessions, %d steps in a %.3f s window", len(createMS), steps, window)

	// gain_pct is the Fig. 6 quality number over the whole fixed list:
	// each session's deterministic cost against always running on all
	// nodes. Entries the window did not reach run now, untimed, so the
	// number never depends on speed; a probe needs no gain.
	var gains []float64
	for i, t := range firstRun {
		if t == nil && b.probe {
			continue
		}
		if t == nil {
			k := int(next.Add(1) - 1)
			out := tn.session(k, list[i])
			if out == nil {
				continue
			}
			t = out.traj
			firstRun[i] = t
		}
		sum := 0.0
		for _, s := range t.sims {
			sum += s
		}
		gains = append(gains, 100*(1-sum/(float64(len(t.sims))*allNodes[list[i].key])))
	}
	b.set("gain_pct", "%", mean(gains), len(gains))

	// Sample gate: the first session of each scenario must replay
	// harness.RunOnline bit for bit.
	if b.probe {
		return nil
	}
	for _, k := range tuneScenarios {
		for i, ent := range list {
			if ent.key != k || firstRun[i] == nil {
				continue
			}
			ref, err := onlineReference(ent)
			b.op(err)
			if err == nil {
				b.check(ref.same(firstRun[i]), "session %s/%d differs from harness.RunOnline", ent.key, ent.seed)
			}
			break
		}
	}
	return nil
}

// onlineReference runs one list entry through harness.RunOnline.
func onlineReference(ent tuneEntry) (*trajectory, error) {
	sc, err := scenario(ent.key)
	if err != nil {
		return nil, err
	}
	opts := harness.SimOptions{Tiles: tuneTiles}
	lp, err := harness.LPBound(sc, opts)
	if err != nil {
		return nil, err
	}
	s, err := newStrategy(sc, lp)
	if err != nil {
		return nil, err
	}
	res, err := harness.RunOnline(sc, s, tuneSteps, opts, ent.seed)
	if err != nil {
		return nil, err
	}
	return &trajectory{actions: res.Actions, durations: res.Durations}, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// noteTail records a latency's median and its highest percentile with
// at least minBeyond samples after it.
func noteTail(b *bench, what string, ms []float64) {
	q, v, ok := tailPercentile(ms)
	if !ok {
		b.note("%s: p50 %.3f ms over only %d samples (no tail percentile)", what, v, len(ms))
		return
	}
	b.note("%s: p50 %.3f ms, p%g %.3f ms over %d samples", what, percentile(ms, 0.5), q*100, v, len(ms))
}

// tuneRun is what one tune client needs to run sessions.
type tuneRun struct {
	b   *bench
	e   *engine.Engine
	tr  *tracer
	lps map[string]func(int) float64 // LP bounds for the mirror strategies (traced)
}

// sessionOut is one session's trajectory and timings.
type sessionOut struct {
	traj              *trajectory
	createMS          float64
	stepMS, selfMS    []float64
	nextMS, observeMS []float64
}

// session creates session t<k> for a list entry and steps it
// tuneSteps times. Traced, a mirror strategy fed the same
// observations times the decision and must propose the engine's
// actions. It returns nil when the session failed.
func (tn *tuneRun) session(k int, ent tuneEntry) *sessionOut {
	b, tr := tn.b, tn.tr
	ctx := context.Background()
	req := tr.newReq()
	sessID, endSess := tr.start("tune.session", 0, req)
	defer endSess()
	id := fmt.Sprintf("t%d", k)
	out := &sessionOut{traj: &trajectory{}}
	t0 := time.Now()
	_, endCreate := tr.start("engine.create", sessID, req)
	_, err := tn.e.CreateSession(engine.SessionConfig{
		ID: id, ScenarioKey: ent.key, Strategy: tuneStrategy, Seed: ent.seed, Tiles: tuneTiles,
	})
	endCreate()
	out.createMS = msSince(t0)
	b.op(err)
	if err != nil {
		return nil
	}
	var mirror *timedStrategy
	if tr != nil {
		sc, err := scenario(ent.key)
		if err == nil {
			var s core.Strategy
			s, err = newStrategy(sc, tn.lps[ent.key])
			mirror = &timedStrategy{Strategy: s}
		}
		if err != nil {
			b.op(err)
			return nil
		}
	}
	for i := 0; i < tuneSteps; i++ {
		_, endStep := tr.start("engine.step", sessID, req)
		t1 := time.Now()
		r, err := tn.e.StepCtx(ctx, id)
		sms := msSince(t1)
		endStep()
		b.op(err)
		if err != nil {
			return nil
		}
		out.stepMS = append(out.stepMS, sms)
		out.traj.actions = append(out.traj.actions, r.Action)
		out.traj.durations = append(out.traj.durations, r.Duration)
		out.traj.sims = append(out.traj.sims, r.Sim)
		if mirror == nil {
			continue
		}
		_, endMirror := tr.start("core.decide", sessID, req)
		a := mirror.Next()
		mirror.Observe(a, r.Duration)
		endMirror()
		b.check(a == r.Action, "mirror strategy of %s proposed %d, the engine %d", id, a, r.Action)
		last := len(mirror.nextMS) - 1
		out.selfMS = append(out.selfMS, sms-mirror.nextMS[last]-mirror.observeMS[last])
	}
	if mirror != nil {
		out.nextMS, out.observeMS = mirror.nextMS, mirror.observeMS
	}
	return out
}
