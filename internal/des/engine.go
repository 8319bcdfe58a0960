// Package des is a minimal discrete-event simulation core: a virtual
// clock and a time-ordered event queue with cancellation. It plays the
// role SimGrid's simulation kernel plays for StarPU-SimGrid in the paper.
package des

// Event is a scheduled callback. It can be cancelled before it fires.
type Event struct {
	at    float64
	h     Handler
	index int // heap index, -1 once removed
}

// Handler is an event target that is built once and scheduled many
// times: a simulation object that implements Fire costs no allocation
// per event, where a capturing closure would cost one.
type Handler interface{ Fire() }

// funcHandler adapts a plain callback.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// Time returns the simulated time at which the event fires.
func (e *Event) Time() float64 { return e.at }

// eventChunk is how many events one slab allocation holds. Events are
// carved out of slabs rather than allocated one by one: a simulated
// iteration schedules tens of thousands of them. A slab is never
// recycled while the engine lives, so a handle kept past its firing
// still cancels as a no-op.
const eventChunk = 512

// Engine owns the virtual clock and the pending event set.
type Engine struct {
	now    float64
	queue  []entry // binary min-heap on (at, seq)
	slab   []Event // unused tail of the current event slab
	seq    uint64
	nSteps uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nSteps }

// Schedule registers fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it would corrupt causality.
func (e *Engine) Schedule(at float64, fn func()) *Event {
	return e.schedule(at, funcHandler(fn))
}

func (e *Engine) schedule(at float64, h Handler) *Event {
	if at < e.now {
		panic("des: scheduling into the past")
	}
	if len(e.slab) == 0 {
		e.slab = make([]Event, eventChunk)
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	*ev = Event{at: at, h: h}
	e.queue = append(e.queue, entry{at: at, seq: e.seq, ev: ev})
	e.seq++
	e.up(len(e.queue) - 1)
	return ev
}

// After registers fn to run delay seconds from now.
func (e *Engine) After(delay float64, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.Schedule(e.now+delay, fn)
}

// AfterHandler registers h to fire delay seconds from now.
func (e *Engine) AfterHandler(delay float64, h Handler) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.schedule(e.now+delay, h)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	i := ev.index
	last := len(e.queue) - 1
	if i != last {
		e.queue[i] = e.queue[last]
	}
	e.queue[last] = entry{}
	e.queue = e.queue[:last]
	if i != last {
		e.queue[i].ev.index = i
		if !e.down(i) {
			e.up(i)
		}
	}
	ev.index = -1
	ev.h = nil
}

// Step executes the earliest pending event. It reports whether an event
// was executed.
func (e *Engine) Step() bool {
	n := len(e.queue)
	if n == 0 {
		return false
	}
	ev := e.queue[0].ev
	e.queue[0] = e.queue[n-1]
	e.queue[n-1] = entry{}
	e.queue = e.queue[:n-1]
	if n > 1 {
		e.queue[0].ev.index = 0
		e.down(0)
	}
	ev.index = -1
	e.now = ev.at
	e.nSteps++
	h := ev.h
	ev.h = nil
	h.Fire()
	return true
}

// Run executes events until the queue drains and returns the final clock.
func (e *Engine) Run() float64 {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with time <= t, then advances the clock to t
// (if it is ahead of the last event).
func (e *Engine) RunUntil(t float64) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.queue) }

// The queue is a hand-rolled binary heap over (time, insertion
// sequence), so simultaneous events run in FIFO order and simulations
// stay deterministic. It is typed rather than container/heap-based —
// no interface boxing on the hot path — and keeps each event's sort key
// inline, so comparisons never leave the heap array.

// entry is one queued event with its sort key.
type entry struct {
	at  float64
	seq uint64
	ev  *Event
}

func (a *entry) before(b *entry) bool {
	//lint:allow floatsafe lexicographic (time, seq) order needs exact equality; a tolerance would break the strict weak ordering
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// up sifts element j toward the root.
func (e *Engine) up(j int) {
	q := e.queue
	x := q[j]
	for j > 0 {
		i := (j - 1) / 2
		if !x.before(&q[i]) {
			break
		}
		q[j] = q[i]
		q[j].ev.index = j
		j = i
	}
	q[j] = x
	x.ev.index = j
}

// down sifts element i0 toward the leaves and reports whether it moved.
func (e *Engine) down(i0 int) bool {
	q := e.queue
	n := len(q)
	x := q[i0]
	i := i0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].before(&q[j]) {
			j = j2
		}
		if !q[j].before(&x) {
			break
		}
		q[i] = q[j]
		q[i].ev.index = i
		i = j
	}
	q[i] = x
	x.ev.index = i
	return i > i0
}
