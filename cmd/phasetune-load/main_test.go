package main

import (
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"phasetune/internal/engine"
)

// A closed-loop record's duration_s is the load window, which closes at
// the -duration deadline, not when the client goroutines launch.
func TestClosedLoopWindowSpansDuration(t *testing.T) {
	e := engine.New(1)
	defer e.Close()
	srv := httptest.NewServer(engine.NewServer(e))
	defer srv.Close()

	out := filepath.Join(t.TempDir(), "bench.json")
	cfg := config{
		addr:         strings.TrimPrefix(srv.URL, "http://"),
		duration:     400 * time.Millisecond,
		rate:         8,
		closed:       2,
		steps:        2,
		batchK:       2,
		scenario:     "b",
		strategy:     "DC",
		tiles:        2,
		seed:         1,
		opTimeout:    10 * time.Second,
		settle:       30 * time.Second,
		out:          out,
		label:        "closed-window",
		maxErrorRate: -1,
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	rec, err := latestRecord(out, "closed-window")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Mode != "closed" || rec.DurationS < cfg.duration.Seconds() {
		t.Fatalf("mode %q, duration_s %v: want a closed-loop window of at least %v",
			rec.Mode, rec.DurationS, cfg.duration)
	}
}
