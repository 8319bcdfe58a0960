package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// calibLoop is a fixed integer workload (a SplitMix64 chain) whose
// time tracks the host's single-core speed and nothing in the program.
func calibLoop() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 20_000_000; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x ^= z >> 31
	}
	return x
}

var calibSink uint64

// hostCalibMS is the median wall time of five calibration loops, in ms.
func hostCalibMS() float64 {
	ts := make([]float64, 5)
	for i := range ts {
		t0 := time.Now()
		calibSink += calibLoop()
		ts[i] = msSince(t0)
	}
	return percentile(ts, 0.5)
}

// hostFsyncMS is the median time of twenty small append+fsync calls in
// dir (the journal directory on fleet), in ms.
func hostFsyncMS(dir string) (float64, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, fmt.Errorf("fsync probe: %w", err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	ts := make([]float64, 20)
	for i := range ts {
		if _, err := f.WriteString("0123456789abcdef0123456789abcdef\n"); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		ts[i] = msSince(t0)
	}
	return percentile(ts, 0.5), nil
}

// resetRSSPeak returns freed memory to the OS and restarts the
// kernel's peak-RSS (VmHWM) accounting, so that the next rssPeakMB
// covers only what follows: the measured window, not set-up.
func resetRSSPeak() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MiB.
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line")
}

// runtimeSample is a snapshot of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      float64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(ms[0]), totalCPU: val(ms[1]), allocBytes: val(ms[2])}
}

// gcFrac is the share of the process's CPU time spent in the garbage
// collector between two samples.
func gcFrac(a, b runtimeSample) ratio {
	return ratio{b.gcCPU - a.gcCPU, b.totalCPU - a.totalCPU}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
