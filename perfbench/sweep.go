package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/metrics"
	"time"

	"phasetune/internal/des"
	"phasetune/internal/engine"
	"phasetune/internal/geostat"
	"phasetune/internal/harness"
	"phasetune/internal/platform"
	"phasetune/internal/simnet"
	"phasetune/internal/taskrt"
)

// sweepSpec is one cold-cache f(n) sweep input.
type sweepSpec struct {
	key   string
	tiles int
	exact bool
}

func (s sweepSpec) id() string {
	net := "fast"
	if s.exact {
		net = "exact"
	}
	return fmt.Sprintf("%s/%d/%s", s.key, s.tiles, net)
}

func (s sweepSpec) opts() harness.SimOptions {
	return harness.SimOptions{Tiles: s.tiles, Exact: s.exact}
}

// The sweep workload: a small, a medium and a large platform (b, c, p)
// on the fast network at 48 tiles, the size of
// BenchmarkSimulateIteration101, plus the exact fluid network at 12
// tiles on the two small ones, which takes about a twentieth of the
// wall time. Each round runs the five sweeps in a seeded order.
var (
	fastSweeps  = []sweepSpec{{"b", 48, false}, {"c", 48, false}, {"p", 48, false}}
	exactSweeps = []sweepSpec{{"b", 12, true}, {"c", 12, true}}
	warmupSweep = sweepSpec{"b", 48, false}
)

// setupReps is how many times each workload sets up; setup_s is the
// median, so one slow start does not move it.
const setupReps = 5

// digest is a stable fingerprint of a sweep's makespans: SHA-256 over
// (action, float64 bits) pairs, so any change of any bit shows.
func digest(points []engine.SweepPoint) string {
	h := sha256.New()
	var buf [16]byte
	for _, p := range points {
		binary.LittleEndian.PutUint64(buf[:8], uint64(p.Action))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Makespan))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func scenario(key string) (platform.Scenario, error) {
	sc, ok := platform.ScenarioByKey(key)
	if !ok {
		return platform.Scenario{}, fmt.Errorf("unknown scenario %q", key)
	}
	return sc, nil
}

// coldSweep runs one sweep on a fresh engine, so every point is a miss.
func coldSweep(s sweepSpec) (*engine.SweepResult, float64, error) {
	sc, err := scenario(s.key)
	if err != nil {
		return nil, 0, err
	}
	e := engine.New(workers())
	defer e.Close()
	t0 := time.Now()
	res, err := e.Sweep(sc, s.opts(), engine.SweepOptions{})
	return res, msSince(t0), err
}

// goldenSweep is one sweep's expected output.
type goldenSweep struct {
	Digest    string    `json:"digest"`
	Makespans []float64 `json:"makespans"`
}

// fluidTolerance is the relative error allowed on exact-network
// makespans. The fluid model is not bit-reproducible: its progressive
// filling ranges over Go maps (internal/simnet/fluid.go), so ties
// resolve in a random order and makespans move by up to about 0.6%
// from run to run. Fast-network sweeps are gated bit for bit; exact
// ones to this tolerance, with every bitwise miss counted in
// simnet.fluid_bit_mismatches so the defect stays visible.
const fluidTolerance = 0.02

func loadGolden(path string) (map[string]goldenSweep, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden sweeps: %w", err)
	}
	var g map[string]goldenSweep
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("golden sweeps %s: %w", path, err)
	}
	return g, nil
}

// checkGolden gates one sweep against the golden file and reports
// whether its makespans were bit-identical to it.
func checkGolden(b *bench, golden map[string]goldenSweep, s sweepSpec, points []engine.SweepPoint) bool {
	g, ok := golden[s.id()]
	if !ok {
		b.check(false, "no golden output for sweep %s", s.id())
		return false
	}
	exactBits := g.Digest == digest(points)
	if !s.exact {
		b.check(exactBits, "sweep %s makespans differ from the golden digest", s.id())
		return exactBits
	}
	within := len(points) == len(g.Makespans)
	for i := 0; within && i < len(points); i++ {
		within = math.Abs(points[i].Makespan-g.Makespans[i]) <= fluidTolerance*g.Makespans[i]
	}
	b.check(within, "sweep %s makespans are not within %g of the golden values", s.id(), fluidTolerance)
	return exactBits
}

// writeGolden recomputes every sweep's expected output. Run it only
// when the simulator's output is meant to change.
func writeGolden(path string) error {
	g := map[string]goldenSweep{}
	for _, s := range append(append([]sweepSpec{}, fastSweeps...), exactSweeps...) {
		res, _, err := coldSweep(s)
		if err != nil {
			return err
		}
		ms := make([]float64, len(res.Points))
		for i, p := range res.Points {
			ms[i] = p.Makespan
		}
		g[s.id()] = goldenSweep{Digest: digest(res.Points), Makespans: ms}
	}
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// simStats accumulates the traced mirror's per-layer counts.
type simStats struct {
	sims, exactSims         int
	buildMS, runMS, fluidMS float64
	buildAllocs, runAllocs  float64
	tasks, events           float64
	transfers               float64
	bytes                   float64
	busyMS                  float64 // serial simulation time, all mirrored sims
}

func runSweep(b *bench, seconds float64, tr *tracer) error {
	golden, err := loadGolden(b.cfg.golden)
	if err != nil {
		return err
	}

	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		res, _, err := coldSweep(warmupSweep)
		b.op(err)
		if err == nil {
			checkGolden(b, golden, warmupSweep, res.Points)
		}
		setups[i] = float64(time.Since(t0)) / 1e9
	}
	b.set("setup_s", "s", percentile(setups, 0.5), len(setups))

	if err := b.startWindow(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.cfg.seed))
	specs := append(append([]sweepSpec{}, fastSweeps...), exactSweeps...)
	var (
		fastMS, exactMS     []float64
		fastSims, exactSims int
		fastWall, exactWall float64
		gains               = map[string]float64{}
		st                  simStats
		r0                  = readRuntime()
		start               = time.Now()
		deadline            = start.Add(time.Duration(seconds * float64(time.Second)))
		end                 time.Time
		slowest             float64
		fluidMismatches     int
	)
	// A probe's first round always completes, so even a short probe
	// measures every kind of sweep.
	for round := 0; time.Now().Before(deadline); round++ {
		for _, i := range rng.Perm(len(specs)) {
			if (round > 0 || !b.probe) && !time.Now().Before(deadline) {
				break
			}
			s := specs[i]
			req := tr.newReq()
			opStart := time.Now()
			_, endSpan := tr.start("engine.sweep", 0, req)
			res, ms, err := coldSweep(s)
			endSpan()
			end = time.Now()
			b.op(err)
			if err != nil {
				continue
			}
			bitsOK := checkGolden(b, golden, s, res.Points)
			if s.exact {
				if !bitsOK {
					fluidMismatches++
				}
				exactMS = append(exactMS, ms)
				exactSims += len(res.Points)
				exactWall += ms
			} else {
				fastMS = append(fastMS, ms)
				fastSims += len(res.Points)
				fastWall += ms
				all := res.Points[len(res.Points)-1].Makespan
				gains[s.id()] = 100 * (1 - res.BestMakespan/all)
			}
			if tr != nil {
				if err := mirrorSweep(b, tr, s, res, req, &st); err != nil {
					return err
				}
				end = time.Now()
			}
			slowest = math.Max(slowest, end.Sub(opStart).Seconds())
		}
	}
	if err := b.endWindow(); err != nil {
		return err
	}
	window := end.Sub(start).Seconds()
	if !b.probe {
		b.checkWindow("sweep", window, seconds, slowest)
	}
	r1 := readRuntime()

	fastRate := ratio{float64(fastSims), fastWall / 1e3}.value()
	b.set("work_per_s", "1/s", fastRate, fastSims)
	b.set("sims_per_s", "1/s", fastRate, fastSims)
	b.set("exact_sims_per_s", "1/s", ratio{float64(exactSims), exactWall / 1e3}.value(), exactSims)
	b.set("call_p50_ms", "ms", percentile(fastMS, 0.5), len(fastMS))
	g := 0.0
	for _, v := range gains {
		g += v
	}
	b.set("gain_pct", "%", ratio{g, float64(len(gains))}.value(), len(gains))
	b.set("runtime.gc_cpu_frac", "ratio", gcFrac(r0, r1).value(), 1)
	b.set("simnet.fluid_bit_mismatches", "count", float64(fluidMismatches), len(exactMS))
	b.note("sweep: %d of %d exact-network sweeps differ bitwise from the golden run (nondeterministic fluid model)",
		fluidMismatches, len(exactMS))
	b.note("sweep: %d fast sweeps (%d sims) in %.0f ms, %d exact sweeps (%d sims) in %.0f ms, window %.3f s",
		len(fastMS), fastSims, fastWall, len(exactMS), exactSims, exactWall, window)
	if q, v, ok := tailPercentile(fastMS); ok {
		b.note("sweep: fast sweep call p%g = %.1f ms over %d calls", q*100, v, len(fastMS))
	}

	if tr != nil {
		n := float64(st.sims + st.exactSims)
		per := func(v float64) float64 { return ratio{v, n}.value() }
		b.set("geostat.build_ms", "ms", per(st.buildMS), int(n))
		b.set("geostat.build_allocs", "count", per(st.buildAllocs), int(n))
		b.set("taskrt.tasks", "count", per(st.tasks), int(n))
		b.set("taskrt.run_ms", "ms", ratio{st.runMS, float64(st.sims)}.value(), st.sims)
		b.set("taskrt.run_allocs", "count", per(st.runAllocs), int(n))
		b.set("des.events", "count", per(st.events), int(n))
		b.set("simnet.fluid_run_ms", "ms", ratio{st.fluidMS, float64(st.exactSims)}.value(), st.exactSims)
		b.set("simnet.transfers", "count", per(st.transfers), int(n))
		b.set("simnet.mbytes", "MB", per(st.bytes/1e6), int(n))
		// The engine sweeps with workers() slots; the mirror measured how
		// long the same simulations take serially.
		idle := 1 - ratio{st.busyMS, (fastWall + exactWall) * float64(workers())}.value()
		b.set("engine.pool_idle_frac", "ratio", idle, int(n))
	}
	return nil
}

// countingNet decorates a simnet.Network, counting transfers and bytes.
type countingNet struct {
	inner     simnet.Network
	transfers int
	bytes     float64
}

func (c *countingNet) Transfer(src, dst int, bytes float64, done func()) {
	c.transfers++
	c.bytes += bytes
	c.inner.Transfer(src, dst, bytes, done)
}

var allocObjects = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs reads the process's cumulative heap allocation count. The
// mirror runs alone on its goroutine, so deltas around a call are that
// call's allocations.
func heapAllocs() float64 {
	metrics.Read(allocObjects)
	return float64(allocObjects[0].Value.Uint64())
}

// mirrorSweep re-drives every simulation of a finished sweep through
// the sim pipeline's public layers, timing each, and checks each
// makespan is bit-equal to the engine's (which are
// harness.Evaluator.Evaluate's), so the mirror cannot drift.
func mirrorSweep(b *bench, tr *tracer, s sweepSpec, res *engine.SweepResult, req int64, st *simStats) error {
	sc, err := scenario(s.key)
	if err != nil {
		return err
	}
	p := sc.Platform
	for _, pt := range res.Points {
		simID, endSim := tr.start("sim", 0, req)
		t0 := time.Now()
		eng := des.NewEngine()
		var inner simnet.Network
		if s.exact {
			inner = simnet.NewFluid(eng, p.N(), p.Network)
		} else {
			inner = simnet.NewFast(eng, p.N(), p.Network)
		}
		net := &countingNet{inner: inner}
		rt := taskrt.New(eng, harness.NodeSpecs(p), net)
		spec := geostat.IterationSpec{
			Tiles:      s.tiles,
			TileSize:   sc.Workload.TileSize,
			TileBytes:  sc.Workload.TileBytes(),
			GenSpeeds:  p.GenSpeeds(),
			FactSpeeds: p.FactSpeeds()[:pt.Action],
		}
		_, endBuild := tr.start("geostat.build", simID, req)
		a0, t1 := heapAllocs(), time.Now()
		if err := geostat.BuildIterationGraph(rt, spec); err != nil {
			return err
		}
		buildMS, a1 := msSince(t1), heapAllocs()
		endBuild()
		_, endRun := tr.start("taskrt.run", simID, req)
		t2 := time.Now()
		mk := rt.Run()
		runMS, a2 := msSince(t2), heapAllocs()
		endRun()
		endSim()
		if s.exact {
			b.check(math.Abs(mk-pt.Makespan) <= fluidTolerance*pt.Makespan,
				"mirror of %s at n=%d gives %v, the engine %v", s.id(), pt.Action, mk, pt.Makespan)
		} else {
			b.check(math.Float64bits(mk) == math.Float64bits(pt.Makespan),
				"mirror of %s at n=%d gives %v, the engine %v", s.id(), pt.Action, mk, pt.Makespan)
		}

		st.busyMS += msSince(t0)
		st.buildMS += buildMS
		st.buildAllocs += a1 - a0
		st.runAllocs += a2 - a1
		st.tasks += float64(rt.NumTasks())
		st.events += float64(eng.Steps())
		st.transfers += float64(net.transfers)
		st.bytes += net.bytes
		if s.exact {
			st.exactSims++
			st.fluidMS += runMS
		} else {
			st.sims++
			st.runMS += runMS
		}
	}
	return nil
}
