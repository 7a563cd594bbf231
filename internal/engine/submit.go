package engine

import (
	"repro/internal/sim"
	"repro/internal/workload"
)

// Serving-mode submission: Submit injects one externally arrived
// transaction (a TCP request, not a closed-loop worker's draw) into the
// engine and fires a completion callback once it commits. The retry
// discipline — randomized backoff growing with consecutive aborts,
// NO_WAIT damping capped at 8x — is the workerSM's, so a served
// transaction behaves exactly like a simulated one; the only difference
// is what happens after commit: the worker chains to its next draw, the
// submission reports back to the connection that carried it.

// submitSM drives one submitted transaction to commit. Pooled on the
// Context (freeSubmits): the serving steady state recycles machines
// instead of allocating one per request.
type submitSM struct {
	c        *Context
	eng      Engine
	n        *Node
	rng      *sim.RNG
	txn      *workload.Txn
	start    sim.Time
	attempts int // backoff damping, capped at 8
	retries  int // total aborted attempts, reported to k
	k        func(Class, int)

	retryFn func()
	doneFn  func(Class, error)
}

// Submit starts executing txn on node n and calls k(class, retries) when
// it commits. Must be called from the environment's owning goroutine; the
// callback fires during a later Step. rng seeds the retry backoff draws —
// callers keep one per submission stream for determinism.
func (c *Context) Submit(eng Engine, n *Node, txn *workload.Txn, rng *sim.RNG, k func(cls Class, retries int)) {
	var sm *submitSM
	if len(c.freeSubmits) > 0 {
		sm = c.freeSubmits[len(c.freeSubmits)-1]
		c.freeSubmits = c.freeSubmits[:len(c.freeSubmits)-1]
	} else {
		sm = &submitSM{}
		sm.retryFn = sm.retry
		sm.doneFn = sm.done
	}
	sm.c, sm.eng, sm.n, sm.rng, sm.txn, sm.k = c, eng, n, rng, txn, k
	sm.start = c.Env.Now()
	sm.attempts, sm.retries = 0, 0
	c.submitsInflight++
	sm.retry()
}

// classAdapter bridges a scheme's k(error) continuation to the engine
// API's k(Class, error) with a fixed class. Pooled on the Context so
// engines whose Execute is a straight scheme call (noswitch cold path)
// stay allocation-free per attempt.
type classAdapter struct {
	c   *Context
	cls Class
	k   func(Class, error)
	fn  func(error)
}

// wrapClass returns a pooled k(error) continuation that forwards to
// k(cls, error). The adapter recycles itself when it fires, so each
// wrapped continuation must be invoked exactly once.
func (c *Context) wrapClass(cls Class, k func(Class, error)) func(error) {
	var a *classAdapter
	if n := len(c.freeClassAdapters); n > 0 {
		a = c.freeClassAdapters[n-1]
		c.freeClassAdapters = c.freeClassAdapters[:n-1]
	} else {
		a = &classAdapter{c: c}
		a.fn = a.call
	}
	a.cls, a.k = cls, k
	return a.fn
}

func (a *classAdapter) call(err error) {
	c, k, cls := a.c, a.k, a.cls
	a.k = nil
	c.freeClassAdapters = append(c.freeClassAdapters, a)
	k(cls, err)
}

// SubmitsInflight returns the number of submitted transactions that have
// not yet committed.
func (c *Context) SubmitsInflight() int { return c.submitsInflight }

// SubmitsDone returns the number of submitted transactions committed.
func (c *Context) SubmitsDone() int64 { return c.submitsDone }

// retry executes the transaction: its first attempt, and again after each
// backoff.
func (sm *submitSM) retry() {
	if ad := sm.c.ad; ad != nil {
		// See workerSM.retry: retries re-record so contended tuples gain
		// detection weight proportional to the aborts they cause.
		ad.record(sm.n, sm.txn)
		ad.exec(sm.eng, sm.n, sm.txn, sm.doneFn)
		return
	}
	sm.eng.Execute(sm.c, sm.n, sm.txn, sm.doneFn)
}

// done receives one attempt's outcome: workerSM.done's retry and
// accounting discipline, then completion instead of chaining.
func (sm *submitSM) done(cls Class, err error) {
	c := sm.c
	if err != nil {
		if c.measuring {
			sm.n.counters.Aborts++
		}
		sm.retries++
		if sm.attempts < 8 {
			sm.attempts++
		}
		backoff := c.Costs.AbortBackoff/2 + sim.Time(sm.rng.Int63n(int64(c.Costs.AbortBackoff)))
		c.Env.After(backoff*sim.Time(sm.attempts), sm.retryFn)
		return
	}
	c.accountCommit(sm.n, cls, sm.txn, sm.start)
	c.submitsInflight--
	c.submitsDone++
	k, retries := sm.k, sm.retries
	sm.txn, sm.k, sm.rng = nil, nil, nil
	c.freeSubmits = append(c.freeSubmits, sm)
	k(cls, retries)
}
