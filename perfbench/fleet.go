package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phasetune/internal/client"
	"phasetune/internal/engine"
	"phasetune/internal/harness"
	"phasetune/internal/obsv/events"
	"phasetune/internal/obsv/wallclock"
	"phasetune/internal/shard"
)

// The fleet workload: two shards behind shard.Router on loopback, in
// this process. Each shard is configured like phasetune-serve
// (telemetry and event log on, one evaluation worker), fsyncs its
// journal in the run's scratch directory and replicates it to the other
// shard. workers() internal/client clients run a closed-loop service
// script on scenario b: create, an advance-epoch, then rounds of steps,
// a stream-step and a result read. The commit path (HTTP handler →
// router hop → journal fsync → replica ack) dominates; result reads run
// beside the commits.
//
// Every session advances once, to epoch 1, whose makespans are
// prewarmed into both shards' caches in setup. Steps are therefore
// cache hits: a session working through fresh epochs would make each
// evaluation a miss, and the always-on telemetry keeps every missed
// simulation's task trace for the life of the process (at 8 tiles,
// over 1 GB within an 8 s window). With the cache complete
// and never dropped, a stream-step's constant-liar proposals see the
// same cached values as on the prewarmed fresh engine the replay gate
// uses, so replays are byte-identical.
const (
	fleetShards   = 2
	fleetScenario = "b"
	fleetTiles    = 24
	fleetRounds   = 3
	fleetEpoch    = 1
)

type fleetOp struct {
	kind string // step, stream, epoch, read
	k    int
}

// fleetScript is one session's seeded script: an advance-epoch, then
// fleetRounds rounds of step, step, stream-step(k), step, read, then
// two steps and a final read.
func fleetScript(rng *rand.Rand) []fleetOp {
	ops := []fleetOp{{kind: "epoch"}}
	for r := 0; r < fleetRounds; r++ {
		ops = append(ops,
			fleetOp{kind: "step"}, fleetOp{kind: "step"},
			fleetOp{kind: "stream", k: 2 + rng.Intn(2)},
			fleetOp{kind: "step"}, fleetOp{kind: "read"})
	}
	return append(ops, fleetOp{kind: "step"}, fleetOp{kind: "step"}, fleetOp{kind: "read"})
}

// prewarm fills e's cache with the fleet scenario's makespans at
// fleetEpoch and returns the all-nodes makespan.
func prewarm(e *engine.Engine) (float64, error) {
	sc, err := scenario(fleetScenario)
	if err != nil {
		return 0, err
	}
	res, err := e.Sweep(sc, harness.SimOptions{Tiles: fleetTiles}, engine.SweepOptions{Epoch: fleetEpoch})
	if err != nil {
		return 0, err
	}
	return res.Points[len(res.Points)-1].Makespan, nil
}

// fleet is the in-process deployment.
type fleet struct {
	engines []*engine.Engine
	servers []*http.Server
	serveWG sync.WaitGroup
	router  *shard.Router
	clients []*client.Client
}

// serve starts h on a loopback port and returns its base URL.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.serveWG.Add(1)
	go func() {
		defer f.serveWG.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

func startFleet(dir string, seed int64) (*fleet, error) {
	f := &fleet{}
	names := make([]string, fleetShards)
	addr := map[string]string{}
	var shards []shard.Shard
	for i := range names {
		names[i] = fmt.Sprintf("w%d", i)
		jdir := filepath.Join(dir, names[i])
		if err := os.MkdirAll(jdir, 0o755); err != nil {
			f.close()
			return nil, err
		}
		tel := wallclock.NewTelemetry()
		tel.Events = events.New(wallclock.Nanos)
		e := engine.NewWithOptions(engine.Options{Workers: 1, JournalDir: jdir, Telemetry: tel})
		f.engines = append(f.engines, e)
		if _, err := prewarm(e); err != nil {
			f.close()
			return nil, err
		}
		url, err := f.serve(engine.NewServerWithOptions(e, engine.ServerOptions{}))
		if err != nil {
			f.close()
			return nil, err
		}
		addr[names[i]] = url
		shards = append(shards, shard.Shard{Name: names[i], Addr: url})
	}
	ring, err := shard.NewRing(names, 0)
	if err != nil {
		f.close()
		return nil, err
	}
	// Each session's follower is the next distinct ring member after
	// this shard, as phasetune-serve derives it from its fleet config.
	for i, e := range f.engines {
		self := names[i]
		e.SetReplicaPlanner(func(id string) (string, bool) {
			chain := ring.LookupN(id, len(names))
			for j, name := range chain {
				if name == self {
					next := chain[(j+1)%len(chain)]
					return addr[next], next != self
				}
			}
			return "", false
		})
	}
	f.router, err = shard.New(shard.Options{Shards: shards, Seed: seed, Supervise: true})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router.CheckNow()
	front, err := f.serve(f.router)
	if err != nil {
		f.close()
		return nil, err
	}
	for c := 0; c < workers(); c++ {
		cl, err := client.New(client.Config{
			BaseURL:    front,
			Seed:       uint64(seed)*64 + uint64(c) + 1,
			HTTPClient: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, cl)
	}
	if err := f.clients[0].Ready(context.Background()); err != nil {
		f.close()
		return nil, fmt.Errorf("fleet not ready: %w", err)
	}
	return f, nil
}

// close stops the router, every server (waiting for each to return)
// and every engine.
func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.servers {
		_ = s.Close() // closes listeners and live connections; nothing to flush
	}
	f.serveWG.Wait()
	for _, e := range f.engines {
		_ = e.Close() // journals are in the run's scratch directory, removed after
	}
}

// fleetSnap is the shards' exported telemetry at one instant.
type fleetSnap struct {
	journal, ack, stepHandler hist
	ships, degraded           float64
	hits, misses              float64
}

// hist is one histogram as the shards export it, summed over shards.
type hist struct {
	bounds []float64
	cum    []float64 // cumulative counts, +Inf last
	sum    float64
	count  float64
}

func (h hist) sub(o hist) hist {
	d := hist{bounds: h.bounds, sum: h.sum - o.sum, count: h.count - o.count}
	for i := range h.cum {
		v := h.cum[i]
		if i < len(o.cum) {
			v -= o.cum[i]
		}
		d.cum = append(d.cum, v)
	}
	return d
}

func (h hist) meanMS() float64 {
	if h.count == 0 {
		return 0
	}
	return 1e3 * h.sum / h.count
}

func (h hist) quantileMS(q float64) float64 { return 1e3 * histQuantile(h.bounds, h.cum, q) }

var sampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$`)
var leRE = regexp.MustCompile(`le="([^"]+)"`)

// parseHist reads histogram family name (restricted to samples whose
// labels contain match) from Prometheus text, adding into h.
func parseHist(text, name, match string, h *hist) error {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	i := 0
	for sc.Scan() {
		m := sampleRE.FindStringSubmatch(sc.Text())
		if m == nil || !strings.HasPrefix(m[1], name) || !strings.Contains(m[2], match) {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return fmt.Errorf("parse %s: %w", sc.Text(), err)
		}
		switch m[1] {
		case name + "_bucket":
			le := leRE.FindStringSubmatch(m[2])
			if le == nil {
				return fmt.Errorf("bucket without le: %s", sc.Text())
			}
			if le[1] != "+Inf" {
				b, err := strconv.ParseFloat(le[1], 64)
				if err != nil {
					return fmt.Errorf("parse %s: %w", sc.Text(), err)
				}
				if len(h.bounds) <= i {
					h.bounds = append(h.bounds, b)
				}
			}
			if len(h.cum) <= i {
				h.cum = append(h.cum, 0)
			}
			h.cum[i] += v
			i++
		case name + "_sum":
			h.sum += v
		case name + "_count":
			h.count += v
		}
	}
	return sc.Err()
}

func (f *fleet) snapshot() (fleetSnap, error) {
	var s fleetSnap
	for _, e := range f.engines {
		tel := e.Telemetry()
		var buf bytes.Buffer
		if err := tel.Reg.WritePrometheus(&buf); err != nil {
			return s, err
		}
		text := buf.String()
		for _, h := range []struct {
			name, match string
			into        *hist
		}{
			{"phasetune_journal_append_seconds", "", &s.journal},
			{"phasetune_replica_ack_seconds", "", &s.ack},
			{"phasetune_http_request_seconds", `route="POST /v1/sessions/{id}/step"`, &s.stepHandler},
		} {
			if err := parseHist(text, h.name, h.match, h.into); err != nil {
				return s, err
			}
		}
		s.ships += tel.Reg.Counter("phasetune_replica_ships_total", "", nil).Value()
		s.degraded += tel.Reg.Counter("phasetune_replica_degraded_total", "", nil).Value()
		s.hits += tel.CacheHits.Value()
		s.misses += tel.CacheMisses.Value()
	}
	return s, nil
}

// fleetSession is one completed script with everything it observed.
type fleetSession struct {
	id     string
	seed   int64
	script []fleetOp
	final  engine.SessionResult
	sims   []float64
}

func runFleet(b *bench, seconds float64, tr *tracer) error {
	var f *fleet
	setups := make([]float64, setupReps)
	for i := range setups {
		if f != nil {
			f.close()
		}
		dir, err := os.MkdirTemp(b.dir, "fleet-")
		if err != nil {
			return err
		}
		t0 := time.Now()
		f, err = startFleet(dir, b.cfg.seed)
		if err != nil {
			return err
		}
		setups[i] = float64(time.Since(t0)) / 1e9
	}
	defer f.close()
	b.set("setup_s", "s", percentile(setups, 0.5), len(setups))

	allNodes, err := prewarm(f.engines[0])
	if err != nil {
		return err
	}

	if err := b.startWindow(); err != nil {
		return err
	}
	s0, err := f.snapshot()
	if err != nil {
		return err
	}
	var (
		next                     atomic.Int64
		mu                       sync.Mutex
		createMS, stepMS, readMS []float64
		steps                    int
		done                     []*fleetSession
		end                      time.Time
		slowest                  float64
		ctx                      = context.Background()
		r0                       = readRuntime()
		start                    = time.Now()
		deadline                 = start.Add(time.Duration(seconds * float64(time.Second)))
		wg                       sync.WaitGroup
	)
	loop := func(c int) {
		defer wg.Done()
		cl := f.clients[c]
		for time.Now().Before(deadline) {
			k := next.Add(1) - 1
			seed := b.cfg.seed*1_000_003 + k
			fs := &fleetSession{seed: seed, script: fleetScript(rand.New(rand.NewSource(seed)))}
			req := tr.newReq()
			sessID, endSess := tr.start("fleet.session", 0, req)
			t0 := time.Now()
			_, endCreate := tr.start("client.create", sessID, req)
			sess, err := cl.CreateSession(ctx, client.CreateSessionRequest{
				Scenario: fleetScenario, Strategy: tuneStrategy, Seed: seed, Tiles: fleetTiles,
			})
			endCreate()
			cms := msSince(t0)
			b.op(err)
			if err != nil {
				endSess()
				continue
			}
			fs.id = sess.Info.ID
			var stepLat, readLat []float64
			n := 0
			var opErr error
			for _, op := range fs.script {
				_, endOp := tr.start("client."+op.kind, sessID, req)
				t1 := time.Now()
				var err error
				switch op.kind {
				case "step":
					var r engine.StepResult
					r, err = sess.Step(ctx)
					stepLat = append(stepLat, msSince(t1))
					fs.sims = append(fs.sims, r.Sim)
					n++
				case "stream":
					var rs []engine.StepResult
					rs, err = sess.StreamStep(ctx, op.k)
					for _, r := range rs {
						fs.sims = append(fs.sims, r.Sim)
					}
					n += len(rs)
				case "epoch":
					_, err = sess.AdvanceEpoch(ctx)
				case "read":
					fs.final, err = sess.Result(ctx)
					readLat = append(readLat, msSince(t1))
				}
				endOp()
				b.op(err)
				if err != nil {
					opErr = err
					break
				}
			}
			endSess()
			now := time.Now()
			mu.Lock()
			createMS = append(createMS, cms)
			stepMS = append(stepMS, stepLat...)
			readMS = append(readMS, readLat...)
			steps += n
			if opErr == nil {
				done = append(done, fs)
			}
			slowest = math.Max(slowest, now.Sub(t0).Seconds())
			if now.After(end) {
				end = now
			}
			mu.Unlock()
		}
	}
	for c := range f.clients {
		wg.Add(1)
		go loop(c)
	}
	wg.Wait()
	if err := b.endWindow(); err != nil {
		return err
	}
	window := end.Sub(start).Seconds()
	b.checkWindow("fleet", window, seconds, slowest)
	r1 := readRuntime()
	s1, err := f.snapshot()
	if err != nil {
		return err
	}

	b.set("work_per_s", "1/s", ratio{float64(steps), window}.value(), steps)
	b.set("call_p50_ms", "ms", percentile(stepMS, 0.5), len(stepMS))
	b.set("step_p50_ms", "ms", percentile(stepMS, 0.5), len(stepMS))
	b.set("step_p99_ms", "ms", percentile(stepMS, 0.99), len(stepMS))
	b.set("create_p50_ms", "ms", percentile(createMS, 0.5), len(createMS))
	b.set("create_p90_ms", "ms", percentile(createMS, 0.9), len(createMS))
	b.set("read_p50_ms", "ms", percentile(readMS, 0.5), len(readMS))
	noteTail(b, "fleet: step", stepMS)
	noteTail(b, "fleet: create", createMS)
	noteTail(b, "fleet: read", readMS)

	journal, ack, handler := s1.journal.sub(s0.journal), s1.ack.sub(s0.ack), s1.stepHandler.sub(s0.stepHandler)
	b.set("journal.append_ms_p50", "ms", journal.quantileMS(0.5), int(journal.count))
	b.set("journal.append_ms_p99", "ms", journal.quantileMS(0.99), int(journal.count))
	b.set("replica.ack_ms_p50", "ms", ack.quantileMS(0.5), int(ack.count))
	b.set("replica.ack_ms_p99", "ms", ack.quantileMS(0.99), int(ack.count))
	b.note("fleet: journal append mean %.3f ms, replica ack mean %.3f ms (quantiles interpolated in the exported buckets)",
		journal.meanMS(), ack.meanMS())
	b.set("replica.ships_per_step", "ratio", ratio{s1.ships - s0.ships, float64(steps)}.value(), steps)
	degraded := s1.degraded - s0.degraded
	b.set("replica.degraded", "count", degraded, steps)
	b.check(degraded == 0, "%v commits were acked with replication degraded", degraded)
	b.set("http.step_handler_ms", "ms", handler.meanMS(), int(handler.count))
	// The owner's handler latency is only exported in aggregate, so the
	// hop is the difference of the means.
	b.set("router.hop_ms", "ms", mean(stepMS)-handler.meanMS(), len(stepMS))
	retries := 0.0
	for _, cl := range f.clients {
		retries += float64(cl.Snapshot().Retries)
	}
	b.set("client.retries", "count", retries, len(f.clients))
	hits := ratio{s1.hits - s0.hits, s1.hits - s0.hits + s1.misses - s0.misses}
	b.set("engine.cache_hit_ratio", "ratio", hits.value(), int(hits.den))
	b.set("engine.cache_lookups", "count", hits.den, int(hits.den))
	b.set("runtime.gc_cpu_frac", "ratio", gcFrac(r0, r1).value(), 1)
	b.set("runtime.alloc_kb_per_step", "KB", ratio{(r1.allocBytes - r0.allocBytes) / 1024, float64(steps)}.value(), steps)

	var gains []float64
	for _, fs := range done {
		if len(fs.sims) == 0 {
			continue
		}
		sum := 0.0
		for _, s := range fs.sims {
			sum += s
		}
		gains = append(gains, 100*(1-sum/(float64(len(fs.sims))*allNodes)))
	}
	b.set("gain_pct", "%", mean(gains), len(gains))
	b.note("fleet: %d sessions, %d steps in a %.3f s window", len(done), steps, window)

	// Replay gate: the first sessions completed are replayed, script for
	// script, on a fresh in-process engine with the same prewarmed
	// cache; the results must be byte-identical.
	sample := done
	if len(sample) > 4 {
		sample = sample[:4]
	}
	if b.probe {
		sample = nil
	}
	for _, fs := range sample {
		b.op(replayFleetSession(fs))
	}
	return nil
}

// replayFleetSession reruns one session's script on a fresh engine
// without telemetry, journal or fleet, and compares the final results.
func replayFleetSession(fs *fleetSession) error {
	e := engine.New(1)
	defer e.Close()
	if _, err := prewarm(e); err != nil {
		return err
	}
	ctx := context.Background()
	if _, err := e.CreateSession(engine.SessionConfig{
		ID: fs.id, ScenarioKey: fleetScenario, Strategy: tuneStrategy, Seed: fs.seed, Tiles: fleetTiles,
	}); err != nil {
		return err
	}
	for _, op := range fs.script {
		var err error
		switch op.kind {
		case "step":
			_, err = e.StepCtx(ctx, fs.id)
		case "stream":
			_, _, err = e.StreamBatchStepIdem(ctx, fs.id, op.k, "", nil, func(engine.StepResult) {})
		case "epoch":
			_, _, err = e.AdvanceEpochIdem(ctx, fs.id, "")
		}
		if err != nil {
			return fmt.Errorf("replay %s: %w", fs.id, err)
		}
	}
	want, err := e.Result(fs.id)
	if err != nil {
		return err
	}
	a, err := json.Marshal(fs.final)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, w) {
		return errors.New("fleet session " + fs.id + " differs from its replay on a fresh engine")
	}
	return nil
}
