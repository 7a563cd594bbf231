package sim

import "fmt"

// Signal is a one-shot event that continuations can wait on: Subscribe
// registers a callback and Fire wakes every subscriber at the current
// virtual time. Calvin's sequencer grants each submitted transaction its
// turn through one, and WaitGroup counts fan-out completions on top of one.
type Signal struct {
	env     *Env
	fired   bool
	waiters []func()
}

// NewSignal creates an unfired signal bound to the environment.
func (e *Env) NewSignal() *Signal { return &Signal{env: e} }

// Fire marks the signal fired and wakes all subscribers at the current
// virtual time, in subscription order, one scheduled event per subscriber.
// Firing an already-fired signal is a no-op. Fire must be called from
// simulation context.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, k := range s.waiters {
		s.env.After(0, k)
	}
	s.waiters = nil
}

// Subscribe registers k to run when the signal fires. If the signal has
// already fired, k runs inline (zero scheduled events); otherwise k is
// scheduled as its own same-instant event when Fire runs.
func (s *Signal) Subscribe(k func()) {
	if s.fired {
		k()
		return
	}
	s.waiters = append(s.waiters, k)
}

// WaitGroup counts down outstanding sub-operations (e.g. parallel RPC
// fan-out) and fires an internal signal when the count reaches zero.
type WaitGroup struct {
	n   int
	sig *Signal
}

// NewWaitGroup creates a wait group expecting n completions.
func (e *Env) NewWaitGroup(n int) *WaitGroup {
	wg := &WaitGroup{n: n, sig: e.NewSignal()}
	if n <= 0 {
		wg.sig.Fire()
	}
	return wg
}

// Done records one completion. Completing more often than the group size
// is a bug in the protocol being simulated — the group would already have
// fired — so over-completion panics loudly instead of silently corrupting
// the count.
func (w *WaitGroup) Done() {
	w.n--
	if w.n == 0 {
		w.sig.Fire()
	} else if w.n < 0 {
		panic(fmt.Sprintf("sim: WaitGroup.Done called %d time(s) more than the group size", -w.n))
	}
}

// Subscribe runs k once all completions have been recorded (inline if they
// already have).
func (w *WaitGroup) Subscribe(k func()) { w.sig.Subscribe(k) }
