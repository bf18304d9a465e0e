// Package simtime provides a virtual clock and a discrete-event queue for
// deterministic simulation, plus a Clock abstraction that lets the same
// engine code run against either simulated or wall-clock time.
package simtime

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time, in nanoseconds. It is convertible to
// and from time.Duration one-to-one.
type Duration = time.Duration

// Never is a sentinel farther in the future than any event the simulator
// will ever schedule.
const Never Time = math.MaxInt64

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return Duration(t).String()
}

// Event is a scheduled callback. Events fire in (time, sequence) order, so
// simultaneous events fire in the order they were scheduled, which keeps
// runs reproducible.
type Event struct {
	at    Time
	seq   uint64
	index int // heap index; -1 once fired or canceled
	fn    func()
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Loop is a discrete-event simulation loop: a virtual clock plus an ordered
// queue of pending events. It is not safe for concurrent use; a simulation
// is a single logical thread by construction.
type Loop struct {
	now    Time
	seq    uint64
	events eventHeap
}

// NewLoop returns a loop with the clock at zero and no pending events.
func NewLoop() *Loop { return &Loop{} }

// Now reports the current virtual time.
func (l *Loop) Now() Time { return l.now }

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past (before Now) panics: it would mean the simulation model violated
// causality, and silently reordering would corrupt results.
func (l *Loop) At(at Time, fn func()) *Event {
	if at < l.now {
		panic(fmt.Sprintf("simtime: scheduling at %v before now %v", at, l.now))
	}
	e := &Event{at: at, seq: l.seq, fn: fn}
	l.seq++
	heap.Push(&l.events, e)
	return e
}

// After schedules fn to run d after the current time. Negative d panics.
func (l *Loop) After(d Duration, fn func()) *Event { return l.At(l.now.Add(d), fn) }

// Cancel removes a pending event. Canceling an already-fired or
// already-canceled event is a no-op and reports false.
func (l *Loop) Cancel(e *Event) bool {
	if e == nil || e.index < 0 {
		return false
	}
	heap.Remove(&l.events, e.index)
	return true
}

// Step fires the earliest pending event, advancing the clock to its time.
// It reports false when no events remain.
func (l *Loop) Step() bool {
	if len(l.events) == 0 {
		return false
	}
	e := heap.Pop(&l.events).(*Event)
	l.now = e.at
	e.fn()
	return true
}

// Run fires events until the queue is empty.
func (l *Loop) Run() {
	for l.Step() {
	}
}

// Clock abstracts "what time is it" and "call me later" so that engine
// code can run identically under simulation and wall-clock execution.
type Clock interface {
	// Now returns the current time on this clock's timeline.
	Now() Time
	// AfterFunc arranges for fn to be called d from now and returns a
	// cancel function. Cancel is best-effort: fn may already be running.
	AfterFunc(d Duration, fn func()) (cancel func() bool)
}

// SimClock adapts a Loop to the Clock interface.
type SimClock struct{ Loop *Loop }

// Now implements Clock.
func (c SimClock) Now() Time { return c.Loop.Now() }

// AfterFunc implements Clock.
func (c SimClock) AfterFunc(d Duration, fn func()) func() bool {
	e := c.Loop.After(d, fn)
	return func() bool { return c.Loop.Cancel(e) }
}

// WallClock implements Clock against the real time.Timer machinery.
// Time zero is the moment the WallClock was created.
type WallClock struct{ start time.Time }

// NewWallClock returns a wall clock whose origin is now.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} } //rodain:allow wallclock (the wall-clock implementation is where real time enters)

// Now implements Clock.
func (c *WallClock) Now() Time { return Time(time.Since(c.start)) } //rodain:allow wallclock (the wall-clock implementation is where real time enters)

// AfterFunc implements Clock.
func (c *WallClock) AfterFunc(d Duration, fn func()) func() bool {
	t := time.AfterFunc(d, fn) //rodain:allow wallclock (the wall-clock implementation is where real time enters)
	return t.Stop
}

// Wall is a process-wide wall clock: the default for components whose
// caller did not inject a clock. Sharing one instance keeps every
// uninjected component on the same timeline.
var Wall = NewWallClock()

// SleepOn blocks until d has elapsed on c — the clock-respecting
// replacement for time.Sleep. Under a SimClock it blocks until the
// simulation loop advances past the deadline, so code using it stays
// deterministic in simulated runs.
func SleepOn(c Clock, d Duration) {
	if d <= 0 {
		return
	}
	done := make(chan struct{})
	c.AfterFunc(d, func() { close(done) })
	<-done
}

// Ticker delivers a tick on C every period, driven by an arbitrary
// Clock — the clock-respecting replacement for time.NewTicker. Like
// time.Ticker it drops ticks a slow receiver misses (C has a one-slot
// buffer) and does not close C on Stop.
type Ticker struct {
	C chan struct{}

	mu      sync.Mutex
	clock   Clock
	period  Duration
	cancel  func() bool
	stopped bool
}

// NewTicker returns a started ticker on c firing every period.
func NewTicker(c Clock, period Duration) *Ticker {
	if period <= 0 {
		panic("simtime: non-positive ticker period")
	}
	t := &Ticker{C: make(chan struct{}, 1), clock: c, period: period}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return
	}
	t.cancel = t.clock.AfterFunc(t.period, func() {
		select {
		case t.C <- struct{}{}:
		default: // receiver is behind; drop the tick like time.Ticker
		}
		t.arm()
	})
}

// Stop cancels future ticks. It does not drain C.
func (t *Ticker) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stopped = true
	if t.cancel != nil {
		t.cancel()
	}
}
