package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// request (a session, a sweep, a client call) share req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced path: every method is a no-op returning zero ids.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newReq mints a request id.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// start opens a span and returns the function that closes it together
// with the span's id (the parent of spans opened inside it).
func (t *tracer) start(name string, parent, req int64) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.ids.Add(1)
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))}
	return id, func() {
		s.End = int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// layerStat is one span name reduced: how many, total and self time.
type layerStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	WallMS float64 `json:"wall_ms"`
	SelfMS float64 `json:"self_ms"`
}

// reduce folds the spans into per-name counts, wall and self time.
func (t *tracer) reduce() []layerStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int64][]interval{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	by := map[string]*layerStat{}
	for _, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.WallMS += float64(s.End-s.Start) / 1e6
		st.SelfMS += float64(selfTime(interval{s.Start, s.End}, kids[s.ID])) / 1e6
	}
	out := make([]layerStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// write stores the raw spans and their reduction as JSON at path.
func (t *tracer) write(path string) error {
	layers := t.reduce()
	t.mu.Lock()
	raw, err := json.Marshal(struct {
		Spans  []span      `json:"spans"`
		Layers []layerStat `json:"layers"`
	}{t.spans, layers})
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, raw, 0o644)
}
