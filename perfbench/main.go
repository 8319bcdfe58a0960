// Command perfbench is phasetune's benchmark. It drives the public Go
// functions of the repository from outside — no instrumentation is
// added to the program — and prints every metric by name with its unit
// and sample count, then one JSON result line:
//
//	go run . --workload sweep|tune|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
// See README.md for the workloads and the layer → metric → workload map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// workloads maps a name to its run function. A run measures for the
// given duration, records spans when tr is non-nil, and reports into b.
// BENCHMARK.json gates sweep and tune; fleet's throughput follows the
// disk's fsync latency too closely to gate (README.md), so it runs by
// hand and as the traced probe of the commit-path layers.
var workloads = map[string]func(b *bench, seconds float64, tr *tracer) error{
	"sweep": runSweep,
	"tune":  runTune,
	"fleet": runFleet,
}

// probeSeconds is the window of the short runs a traced run makes of
// the other workloads, so that every per-layer metric is measured.
const probeSeconds = 2

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // output directory, inside the checkout
	golden   string
	contract string // BENCHMARK.json: the metric names and units to print
}

// contract is the part of BENCHMARK.json the benchmark reads: which
// metrics each kind of run prints, with their units.
type contract struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadContract(path string) (contract, error) {
	var c contract
	raw, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("read contract: %w", err)
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return c, fmt.Errorf("parse contract %s: %w", path, err)
	}
	return c, nil
}

// workers is the machine's parallelism: the bound on client goroutines,
// engine workers and client connections in every workload.
func workers() int { return runtime.NumCPU() }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value
}

// bench collects one run's operation counts and metrics.
type bench struct {
	cfg       config
	dir       string // scratch directory of this run (journals, probes)
	probe     bool   // a short run made only for its per-layer metrics
	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	failures []string
	metrics  map[string]metric
	notes    []string
}

func newBench(cfg config, dir string) *bench {
	return &bench{cfg: cfg, dir: dir, metrics: map[string]metric{}}
}

// op counts one attempted operation, failed when err is non-nil.
func (b *bench) op(err error) {
	b.attempted.Add(1)
	if err == nil {
		return
	}
	b.failed.Add(1)
	b.mu.Lock()
	if len(b.failures) < 8 {
		b.failures = append(b.failures, err.Error())
	}
	b.mu.Unlock()
}

// check counts a correctness gate as one operation.
func (b *bench) check(ok bool, format string, args ...any) {
	if ok {
		b.op(nil)
		return
	}
	b.op(fmt.Errorf(format, args...))
}

// checkWindow is the honest-window gate: a closed loop stops issuing at
// the deadline and its window ends when the last operation completes,
// so the window is at least the configured length and overruns it by
// at most the slowest single operation.
func (b *bench) checkWindow(what string, window, seconds, slowestOp float64) {
	b.check(window >= seconds && window <= seconds+slowestOp+0.5,
		"%s window %.3fs does not match the configured %.0fs (slowest op %.3fs)",
		what, window, seconds, slowestOp)
}

// startWindow begins a measured window: it restarts peak-RSS
// accounting so rss_peak_mb reflects the window, not set-up.
func (b *bench) startWindow() error { return resetRSSPeak() }

// endWindow records the window's peak RSS.
func (b *bench) endWindow() error {
	rss, err := rssPeakMB()
	if err != nil {
		return err
	}
	b.set("rss_peak_mb", "MB", rss, 1)
	return nil
}

func (b *bench) set(name, unit string, v float64, n int) {
	b.mu.Lock()
	b.metrics[name] = metric{Value: v, Unit: unit, n: n}
	b.mu.Unlock()
}

func (b *bench) note(format string, args ...any) {
	b.mu.Lock()
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// merge takes o's counts, each metric of o that b lacks, and o's
// notes and failures under label.
func (b *bench) merge(o *bench, label string) {
	b.attempted.Add(o.attempted.Load())
	b.failed.Add(o.failed.Load())
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, f := range o.failures {
		b.failures = append(b.failures, label+": "+f)
	}
	for k, v := range o.metrics {
		if _, ok := b.metrics[k]; !ok {
			b.metrics[k] = v
		}
	}
	for _, n := range o.notes {
		b.notes = append(b.notes, label+": "+n)
	}
}

func main() {
	var cfg config
	var traceFlag int
	var updateGolden bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: sweep, tune or fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured window per run, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "out"), "directory for results, spans and journals")
	flag.StringVar(&cfg.golden, "golden", filepath.Join("perfbench", "golden.json"), "golden sweep outputs")
	flag.StringVar(&cfg.contract, "contract", "BENCHMARK.json", "benchmark contract naming the metrics to print")
	flag.BoolVar(&updateGolden, "update-golden", false, "recompute the golden sweep outputs into -golden and exit")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	var err error
	if updateGolden {
		err = writeGolden(cfg.golden)
	} else {
		err = run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if _, ok := workloads[cfg.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want sweep, tune or fleet)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	ct, err := loadContract(cfg.contract)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b, err := measure(cfg, dir)
	if err != nil {
		return err
	}
	return report(cfg, ct, b)
}

// measure runs the workload once untraced, or, for a traced run, once
// untraced, once traced and briefly each other workload traced, so the
// per-layer metrics of layers this workload does not reach are measured
// too (README.md lists which workload owns which metric).
func measure(cfg config, dir string) (*bench, error) {
	secs := float64(cfg.seconds)
	plain := newBench(cfg, dir)
	if err := hostProbes(plain, dir); err != nil {
		return nil, err
	}
	if err := workloads[cfg.workload](plain, secs, nil); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return plain, nil
	}

	run := newBench(cfg, dir)
	traced := newBench(cfg, dir)
	tr := newTracer()
	if err := workloads[cfg.workload](traced, secs, tr); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
		return nil, err
	}
	for _, l := range tr.reduce() {
		traced.note("span %-22s n=%-7d wall %10.2f ms  self %10.2f ms", l.Name, l.Count, l.WallMS, l.SelfMS)
	}
	u, t := plain.metrics["work_per_s"].Value, traced.metrics["work_per_s"].Value
	run.set("trace.overhead_pct", "%", 100*(u-t)/u, 2)
	run.merge(traced, "traced")
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if name == cfg.workload {
			continue
		}
		probe := newBench(cfg, dir)
		probe.probe = true
		if err := workloads[name](probe, probeSeconds, newTracer()); err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		run.merge(probe, "probe "+name)
	}
	run.merge(plain, "untraced")
	return run, nil
}

// hostProbes records the host calibration beside every run: a fixed
// CPU loop and fsync latency in the run's scratch directory (which
// holds the fleet journals), so a host change is not read as a
// regression of the program.
func hostProbes(b *bench, dir string) error {
	b.set("host.calib_ms", "ms", hostCalibMS(), 5)
	fs, err := hostFsyncMS(dir)
	if err != nil {
		return err
	}
	b.set("host.fsync_ms", "ms", fs, 20)
	return nil
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the notes and every metric with its sample count,
// stores the full record (seed included) under the output directory,
// and prints the result line last.
func report(cfg config, ct contract, b *bench) error {
	att, fail := b.attempted.Load(), b.failed.Load()
	if att == 0 {
		return errors.New("no operation was attempted")
	}
	b.set("error_rate", "ratio", float64(fail)/float64(att), int(att))
	names := ct.EndToEnd
	if cfg.trace {
		names = ct.PerLayer
	}
	res := result{Correct: fail == 0, Attempted: att, Failed: fail, Metrics: map[string]metric{}}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v workers=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, workers())
	for _, n := range b.notes {
		fmt.Println("  " + n)
	}
	for _, f := range b.failures {
		fmt.Println("  FAILED:", f)
	}
	for _, d := range names {
		m, ok := b.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s is measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		res.Metrics[d.Name] = m
		fmt.Printf("  %-26s %14.6g %-6s n=%d\n", d.Name, m.Value, m.Unit, m.n)
	}
	for _, name := range []string{"host.calib_ms", "host.fsync_ms"} {
		if !cfg.trace {
			m := b.metrics[name]
			fmt.Printf("  %-26s %14.6g %-6s n=%d (host calibration)\n", name, m.Value, m.Unit, m.n)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	record, err := json.MarshalIndent(struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Seconds  int               `json:"seconds"`
		Trace    bool              `json:"trace"`
		Time     time.Time         `json:"time"`
		Result   result            `json:"result"`
		All      map[string]metric `json:"all_metrics"`
		Failures []string          `json:"failures,omitempty"`
		Notes    []string          `json:"notes,omitempty"`
	}{cfg.workload, cfg.seed, cfg.seconds, cfg.trace, time.Now().UTC(), res, b.metrics, b.failures, b.notes}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, boolInt(cfg.trace)))
	if err := os.WriteFile(path, record, 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}
