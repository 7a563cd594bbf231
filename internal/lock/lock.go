// Package lock implements the per-node two-phase-locking concurrency
// control of P4DB's host DBMS: a pessimistic lock table with the two
// deadlock-prevention policies the paper evaluates, NO_WAIT (abort
// immediately on any lock conflict) and WAIT_DIE (a transaction waits only
// for locks owned by younger transactions, otherwise it aborts).
//
// The table is driven by the discrete-event simulator: waiting blocks the
// calling process on a signal that the releasing transaction fires, so
// lock hold times and queueing delays appear on the virtual timeline
// exactly as they would on a real node.
package lock

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// Policy selects the deadlock-prevention scheme.
type Policy int

// Policies.
const (
	// NoWait aborts a transaction as soon as a lock request is denied.
	NoWait Policy = iota
	// WaitDie lets a transaction wait only if every conflicting owner is
	// younger (has a larger timestamp); otherwise the requester dies.
	WaitDie
)

func (p Policy) String() string {
	if p == WaitDie {
		return "WAIT_DIE"
	}
	return "NO_WAIT"
}

// ParsePolicy converts the paper's spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "NO_WAIT", "no_wait", "nowait":
		return NoWait, nil
	case "WAIT_DIE", "wait_die", "waitdie":
		return WaitDie, nil
	}
	return 0, fmt.Errorf("lock: unknown policy %q", s)
}

// Key identifies a lockable object; callers encode table and primary key.
type Key uint64

// Abort reasons. Both satisfy errors.Is(err, ErrAbort).
var (
	ErrAbort    = errors.New("lock: transaction must abort")
	ErrConflict = fmt.Errorf("%w: NO_WAIT conflict", ErrAbort)
	ErrDie      = fmt.Errorf("%w: WAIT_DIE die", ErrAbort)
)

// heldLock is one key a transaction holds, with its mode.
type heldLock struct {
	key  Key
	mode Mode
}

// Txn is a transaction's lock context: its age timestamp and the keys it
// holds, in acquisition order. Timestamps must be unique across the whole
// cluster (the paper assigns them at transaction start). Lock sets are a
// handful of keys, so the set is a small slice searched linearly: no map
// to clear per attempt, and every walk over it is deterministic.
type Txn struct {
	TS   uint64
	held []heldLock
}

// NewTxn creates a lock context with the given unique timestamp.
func NewTxn(ts uint64) *Txn {
	return &Txn{TS: ts, held: make([]heldLock, 0, 8)}
}

// Reset re-arms a lock context for reuse under a new timestamp, keeping the
// held set's capacity. The engines pool Txn values per worker so that
// steady-state execution does not allocate a lock context per attempt.
func (t *Txn) Reset(ts uint64) {
	t.TS = ts
	t.held = t.held[:0]
}

// Holds reports the mode the transaction holds on key (and whether any).
func (t *Txn) Holds(key Key) (Mode, bool) {
	for _, h := range t.held {
		if h.key == key {
			return h.mode, true
		}
	}
	return 0, false
}

// NumHeld returns the number of locks held.
func (t *Txn) NumHeld() int { return len(t.held) }

// hold records key in mode m, upgrading in place when already held.
func (t *Txn) hold(key Key, m Mode) {
	for i := range t.held {
		if t.held[i].key == key {
			t.held[i].mode = m
			return
		}
	}
	t.held = append(t.held, heldLock{key, m})
}

// waiter is one queued lock request. Exactly one of sig (process waiter,
// woken via Signal.Fire), k (AcquireK's continuation, invoked with nil) or
// wake (AcquireWaitK's) is set; each costs one scheduled event per grant,
// so the styles produce identical seeded schedules. Waiters are pooled on
// the table with wakeFn cached, so a WAIT_DIE wait allocates nothing.
type waiter struct {
	tb   *Table
	txn  *Txn
	mode Mode
	sig  *sim.Signal
	k    func(error)
	wake func()

	wakeFn func()
}

// wakeK delivers a granted AcquireK request and recycles the waiter.
func (w *waiter) wakeK() {
	k := w.k
	w.tb.putWaiter(w)
	k(nil)
}

// owner is one current holder of an entry.
type owner struct {
	txn  *Txn
	mode Mode
}

type entry struct {
	owners  []owner
	waiters []*waiter
}

// setOwner installs txn as an owner in mode m (upgrading in place).
func (e *entry) setOwner(txn *Txn, m Mode) {
	for i := range e.owners {
		if e.owners[i].txn == txn {
			e.owners[i].mode = m
			return
		}
	}
	e.owners = append(e.owners, owner{txn, m})
}

// dropOwner removes txn from the owners, keeping the others in order.
func (e *entry) dropOwner(txn *Txn) {
	for i := range e.owners {
		if e.owners[i].txn == txn {
			e.owners = slices.Delete(e.owners, i, i+1)
			return
		}
	}
}

// Stats counts lock-table events.
type Stats struct {
	Acquired  int64
	Conflicts int64 // denied or waited requests
	Waits     int64 // requests that waited (WAIT_DIE only)
	Aborts    int64 // requests that returned an abort error
}

// Table is one node's lock table.
type Table struct {
	env     *sim.Env
	policy  Policy
	entries map[Key]*entry

	// free recycles entry structs (with their owner and waiter slices)
	// released when a key's last lock drops: the serving-mode request path
	// acquires and releases locks on fresh keys every transaction, and
	// re-allocating an entry per key would dominate its allocation profile.
	free []*entry
	// freeWaiters recycles queued-request records the same way.
	freeWaiters []*waiter

	// Stats is exported for benchmarks.
	Stats Stats
}

// NewTable creates an empty lock table with the given policy.
func NewTable(env *sim.Env, policy Policy) *Table {
	return &Table{env: env, policy: policy, entries: make(map[Key]*entry)}
}

// Policy returns the table's deadlock-prevention policy.
func (tb *Table) Policy() Policy { return tb.policy }

// entryFor returns key's entry, installing a pooled or fresh one.
func (tb *Table) entryFor(key Key) *entry {
	e := tb.entries[key]
	if e == nil {
		if n := len(tb.free); n > 0 {
			e = tb.free[n-1]
			tb.free = tb.free[:n-1]
		} else {
			e = &entry{}
		}
		tb.entries[key] = e
	}
	return e
}

// grant makes txn an owner of key in mode m.
func (tb *Table) grant(e *entry, txn *Txn, key Key, m Mode) {
	e.setOwner(txn, m)
	txn.hold(key, m)
	tb.Stats.Acquired++
}

// enqueue appends a pooled waiter for txn to e's FIFO queue.
func (tb *Table) enqueue(e *entry, txn *Txn, m Mode) *waiter {
	var w *waiter
	if n := len(tb.freeWaiters); n > 0 {
		w = tb.freeWaiters[n-1]
		tb.freeWaiters = tb.freeWaiters[:n-1]
	} else {
		w = &waiter{tb: tb}
		w.wakeFn = w.wakeK
	}
	w.txn, w.mode = txn, m
	e.waiters = append(e.waiters, w)
	return w
}

func (tb *Table) putWaiter(w *waiter) {
	w.txn, w.sig, w.k, w.wake = nil, nil, nil, nil
	tb.freeWaiters = append(tb.freeWaiters, w)
}

// compatible reports whether a request of mode m by txn conflicts with the
// current owners (ignoring txn's own holding, which is an upgrade).
func compatible(e *entry, txn *Txn, m Mode) bool {
	for _, o := range e.owners {
		if o.txn != txn && (m == Exclusive || o.mode == Exclusive) {
			return false
		}
	}
	return true
}

// olderThanAllConflicting reports whether txn's timestamp precedes every
// conflicting owner's (the WAIT_DIE wait condition).
func olderThanAllConflicting(e *entry, txn *Txn, m Mode) bool {
	for _, o := range e.owners {
		if o.txn != txn && (m == Exclusive || o.mode == Exclusive) && txn.TS >= o.txn.TS {
			return false
		}
	}
	return true
}

// request decides a NO_WAIT / WAIT_DIE request on the spot. With wait set
// the caller must queue on e; otherwise err is the outcome (nil: granted or
// already held).
func (tb *Table) request(txn *Txn, key Key, m Mode) (e *entry, wait bool, err error) {
	if held, ok := txn.Holds(key); ok && (held == Exclusive || m == Shared) {
		return nil, false, nil // already sufficient
	}
	e = tb.entryFor(key)
	if compatible(e, txn, m) {
		tb.grant(e, txn, key, m)
		return e, false, nil
	}
	tb.Stats.Conflicts++
	if tb.policy == NoWait {
		tb.Stats.Aborts++
		return e, false, ErrConflict
	}
	// WAIT_DIE: wait only on younger owners.
	if !olderThanAllConflicting(e, txn, m) {
		tb.Stats.Aborts++
		return e, false, ErrDie
	}
	tb.Stats.Waits++
	return e, true, nil
}

// Acquire requests key in mode m for txn, blocking the calling process if
// the policy allows waiting. It returns nil on grant or an abort error
// (ErrConflict / ErrDie) the caller must translate into a transaction
// abort. Re-acquiring a held lock in the same or weaker mode is a no-op;
// Shared->Exclusive upgrades follow the same conflict rules.
func (tb *Table) Acquire(p *sim.Proc, txn *Txn, key Key, m Mode) error {
	e, wait, err := tb.request(txn, key, m)
	if !wait {
		return err
	}
	sig := tb.env.NewSignal()
	tb.enqueue(e, txn, m).sig = sig
	// The releaser installs us as owner before firing.
	p.Await(sig)
	return nil
}

// AcquireK is the continuation form of Acquire: instead of blocking a
// process, it invokes k with the grant result — inline when the request is
// decided immediately (grant or abort error), or as a same-instant callback
// scheduled by the releasing transaction when the request waits. The wake-up
// event sits exactly where a process waiter's Signal.Fire wake-up would, so
// seeded schedules are identical across the two forms. Waiting rides a
// pooled waiter, so neither outcome allocates at steady state.
func (tb *Table) AcquireK(txn *Txn, key Key, m Mode, k func(error)) {
	e, wait, err := tb.request(txn, key, m)
	if !wait {
		k(err)
		return
	}
	tb.enqueue(e, txn, m).k = k // the releaser installs us as owner before waking
}

// requestWait is request for the always-waiting primitives: FIFO behind
// the owners and every queued waiter, never an abort.
func (tb *Table) requestWait(txn *Txn, key Key, m Mode) (e *entry, wait bool) {
	if held, ok := txn.Holds(key); ok {
		if held == Exclusive || m == Shared {
			return nil, false // already sufficient
		}
		panic("lock: AcquireWait upgrade would deadlock; request the strongest mode first")
	}
	e = tb.entryFor(key)
	// Join the FIFO queue even when compatible with the owners if anyone
	// is already waiting: overtaking a queued Exclusive request would
	// starve it and make grant order depend on arrival timing.
	if len(e.waiters) == 0 && compatible(e, txn, m) {
		tb.grant(e, txn, key, m)
		return e, false
	}
	tb.Stats.Conflicts++
	tb.Stats.Waits++
	return e, true
}

// AcquireWait requests key in mode m for txn and always waits — FIFO,
// behind the current owners and every queued waiter — regardless of the
// table's deadlock-prevention policy. It never returns an abort: it is the
// acquisition primitive of deterministic (Calvin-style) locking, where the
// caller guarantees deadlock freedom externally by acquiring its entire
// pre-declared lock set in one global key order. With ordered acquisition
// a waiter only ever holds keys smaller than the one it waits on, so every
// waits-for chain runs strictly uphill and can never close into a cycle —
// no waits-for graph, no deadlock detection, no aborts.
//
// Callers must request each key once, in its strongest mode (ordered
// acquisition forbids the Shared->Exclusive upgrade, which waits on a key
// already held); re-requesting a key in the same or weaker mode stays a
// no-op for convenience.
func (tb *Table) AcquireWait(p *sim.Proc, txn *Txn, key Key, m Mode) {
	e, wait := tb.requestWait(txn, key, m)
	if !wait {
		return
	}
	sig := tb.env.NewSignal()
	tb.enqueue(e, txn, m).sig = sig
	// The releaser installs us as owner before firing (see grantWaiters).
	p.Await(sig)
}

// AcquireWaitK is the continuation form of AcquireWait: k runs inline on an
// immediate grant, or as the releaser's same-instant wake-up callback after
// the FIFO queue reaches this request. See AcquireWait for the ordered
// deterministic-locking contract.
func (tb *Table) AcquireWaitK(txn *Txn, key Key, m Mode, k func()) {
	e, wait := tb.requestWait(txn, key, m)
	if !wait {
		k()
		return
	}
	tb.enqueue(e, txn, m).wake = k
}

// ReleaseAll releases every lock txn holds, in acquisition order, and
// grants eligible waiters. It is called at commit and at abort; grants
// happen at the current virtual time.
func (tb *Table) ReleaseAll(txn *Txn) {
	for _, h := range txn.held {
		tb.releaseOne(txn, h.key)
	}
	txn.held = txn.held[:0]
}

// ReleaseAllOrdered releases every lock txn holds in ascending key order.
// Deterministic (Calvin-style) engines use it instead of ReleaseAll: their
// waiting grants routinely leave queued waiters on several released keys at
// once, and the wake order must not depend on the order the locks were
// taken in.
func (tb *Table) ReleaseAllOrdered(txn *Txn) {
	slices.SortFunc(txn.held, func(a, b heldLock) int { return cmp.Compare(a.key, b.key) })
	tb.ReleaseAll(txn)
}

// releaseOne drops txn's hold on key and grants eligible waiters. The
// caller resets txn.held afterwards.
func (tb *Table) releaseOne(txn *Txn, key Key) {
	e := tb.entries[key]
	if e == nil {
		return
	}
	e.dropOwner(txn)
	tb.grantWaiters(key, e)
	if len(e.owners) == 0 && len(e.waiters) == 0 {
		delete(tb.entries, key)
		tb.free = append(tb.free, e)
	}
}

// grantWaiters admits waiters from the head of the FIFO queue while they
// are compatible with the current owners.
func (tb *Table) grantWaiters(key Key, e *entry) {
	for len(e.waiters) > 0 {
		w := e.waiters[0]
		if !compatible(e, w.txn, w.mode) {
			// Head might be an upgrade blocked by other shared owners;
			// nothing behind it can jump the queue for Exclusive, but a
			// compatible Shared request further back may proceed if the
			// head itself is Shared-compatible. Keeping strict FIFO here
			// avoids starvation of upgrades.
			return
		}
		// Queues are a few waiters deep: shifting down keeps the backing
		// array for the entry's next incarnation.
		e.waiters = slices.Delete(e.waiters, 0, 1)
		tb.grant(e, w.txn, key, w.mode)
		switch {
		case w.k != nil:
			tb.env.After(0, w.wakeFn) // recycles w when it runs
			continue
		case w.sig != nil:
			w.sig.Fire(nil)
		default:
			tb.env.After(0, w.wake)
		}
		tb.putWaiter(w)
	}
}

// LockedExclusive reports whether key is currently owned in Exclusive
// mode. Crash-recovery verification uses it to excuse rows whose on-node
// value is mid-update by a live transaction: a redo log reconstructs the
// last committed value, which legitimately differs from an uncommitted
// in-place write.
func (tb *Table) LockedExclusive(key Key) bool {
	if e := tb.entries[key]; e != nil {
		for _, o := range e.owners {
			if o.mode == Exclusive {
				return true
			}
		}
	}
	return false
}

// Owners returns the number of current owners of key (for tests).
func (tb *Table) Owners(key Key) int {
	if e := tb.entries[key]; e != nil {
		return len(e.owners)
	}
	return 0
}

// WaiterCount returns the number of queued waiters on key (for tests).
func (tb *Table) WaiterCount(key Key) int {
	if e := tb.entries[key]; e != nil {
		return len(e.waiters)
	}
	return 0
}
