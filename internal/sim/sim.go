// Package sim implements a deterministic discrete-event simulator with a
// virtual nanosecond clock.
//
// The simulator is the substrate on which the whole P4DB reproduction runs:
// database worker threads, network message delays, switch pipeline latencies
// and lock waits are all modelled as events on a single virtual timeline.
// Every piece of simulated work is a callback event: a continuation
// scheduled with After (or woken through Signal.Subscribe) that runs inline
// on the goroutine driving the environment. A blocking wait is an explicit
// state machine that re-enters itself when its wake-up event runs, so the
// simulator has exactly one thread of control. The simulation is fully
// deterministic for a given seed: contention, abort patterns and throughput
// numbers are exactly reproducible across runs and machines.
//
// The event pipeline is built for throughput: events are inline values in a
// hand-rolled 4-ary heap (timed) and a FIFO ring (same-instant fast path),
// and same-destination deliveries coalesce into batched drain events
// (batch.go). See eventq.go for the queue.
package sim

import (
	"fmt"
)

// Time is a point on (or a span of) the virtual timeline, in nanoseconds.
type Time int64

// Convenient duration units on the virtual timeline.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String formats the time with an adaptive unit, e.g. "12.5µs".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv, schedule callbacks with After, then drive it with
// Run or RunUntil. An Env must be used from a single goroutine: the one
// calling Run runs every callback.
type Env struct {
	now      Time
	seq      uint64
	events   eventQueue
	executed int64
	rng      *RNG
}

// NewEnv returns a fresh environment whose deterministic random stream is
// derived from seed.
func NewEnv(seed uint64) *Env {
	return &Env{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random stream. It must only
// be used from inside simulation context (a scheduled callback); doing so
// keeps draws in a deterministic order.
func (e *Env) Rand() *RNG { return e.rng }

// After runs fn on the simulation timeline delay nanoseconds from now
// (negative delays count as zero). fn executes in scheduler context: it must
// not block, but it may fire signals and schedule further callbacks.
// Same-instant callbacks (delay 0) take the O(1) ring fast path — they are
// already globally ordered by their fresh seq draw — and run in FIFO
// schedule order without touching the timed heap.
func (e *Env) After(delay Time, fn func()) {
	e.seq++
	if delay <= 0 {
		e.events.pushNow(event{at: e.now, seq: e.seq, fn: fn})
		return
	}
	e.events.pushTimed(event{at: e.now + delay, seq: e.seq, fn: fn})
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed (false means the
// event queue is empty).
func (e *Env) Step() bool {
	if e.events.len() == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	e.executed++
	ev.fn()
	return true
}

// Run drains the event queue completely. It returns when no events remain:
// every continuation chain has finished or waits on something that will
// never fire.
func (e *Env) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline. Later events stay queued; the environment can simply be
// dropped, since nothing outside the queue holds on to them.
func (e *Env) RunUntil(deadline Time) {
	for {
		at, ok := e.events.peekAt()
		if !ok || at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Pending returns the number of queued events.
func (e *Env) Pending() int { return e.events.len() }

// Events returns the total number of events executed so far — the
// simulator's work metric. Dividing it by wall-clock time gives the
// events/sec throughput of the scheduler itself.
func (e *Env) Events() int64 { return e.executed }
