package engine

import (
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/twopc"
	"repro/internal/wal"
	"repro/internal/workload"
)

// undoRec is one before-image captured for rollback.
type undoRec struct {
	node  netsim.NodeID
	table store.TableID
	key   store.Key
	field int
	old   int64
}

// attempt is the state of one execution attempt of one transaction.
// Attempts are free-listed on the Context together with everything they
// own — node slots, lock contexts, the participant list — so steady-state
// cold execution performs no per-attempt heap allocation, whether the
// attempt commits or aborts.
type attempt struct {
	c      *Context
	ts     uint64
	inner  map[netsim.NodeID]*lock.Txn // Chiller's inner-region locks
	lm     *lock.Txn                   // LM-Switch central locks
	undo   []undoRec
	writes []wal.ColdWrite
	exec   workload.Executor

	// slots[:used] are the nodes the attempt holds (outer) locks at, in
	// first-touch order: the order 2PC participants are listed and rollback
	// messages are sent in, identical on every run of a seed. slots[used:]
	// are spares kept from earlier incarnations.
	slots []*nodeSlot
	used  int
	// parts is the reusable buffer behind participants.
	parts []twopc.Participant

	// onCommit, when set, runs after each remote participant's commit
	// handler: the warm path counts them down to know when nothing in
	// flight refers to the attempt anymore.
	onCommit func()
	// refs counts what still refers to an aborting attempt: abort itself
	// and every rollback message in flight (see settle).
	refs int
}

// nodeSlot is an attempt's footing at one node: its lock context there and
// the handlers that run "at" that node on the attempt's behalf, cached as
// method values so that neither a 2PC round nor a rollback message builds
// a closure. A slot belongs to its attempt for good; its handlers are
// valid until the attempt is released.
type nodeSlot struct {
	at *attempt
	id netsim.NodeID
	lt *lock.Txn

	voted func(bool) // the prepare in flight (at most one per slot)

	prepareFn  func(done func(bool))
	preparedFn func()
	commitFn   func()
	abortFn    func()
	rollbackFn func()
}

// prepare is the 2PC prepare handler: append the participant's log record,
// then vote yes (locks are held and constraints checked already).
func (s *nodeSlot) prepare(done func(bool)) {
	s.voted = done
	c := s.at.c
	c.Env.After(c.Costs.LogAppend, s.preparedFn)
}

func (s *nodeSlot) prepared() {
	done := s.voted
	s.voted = nil
	done(true)
}

// commit is the 2PC commit handler: release the participant's locks.
func (s *nodeSlot) commit() {
	s.at.c.Nodes[s.id].locks.ReleaseAll(s.lt)
	if s.at.onCommit != nil {
		s.at.onCommit()
	}
}

// abort is the 2PC abort handler, and the local half of Context.abort:
// undo the attempt's writes at this node — newest first — then release its
// locks. Undo logs are short (one entry per write), so filtering the one
// log by node is cheaper than grouping it.
func (s *nodeSlot) abort() {
	n, undo := s.at.c.Nodes[s.id], s.at.undo
	for i := len(undo) - 1; i >= 0; i-- {
		if u := undo[i]; u.node == s.id {
			n.store.Table(u.table).Set(u.key, u.field, u.old)
		}
	}
	n.locks.ReleaseAll(s.lt)
}

// rollback is abort delivered as a one-way message (see Context.abort).
func (s *nodeSlot) rollback() {
	s.abort()
	s.at.c.settle(s.at)
}

// newAttempt returns a fresh or recycled attempt stamped with the next
// cluster-unique timestamp.
func (c *Context) newAttempt() *attempt {
	var at *attempt
	if n := len(c.freeAttempts); n > 0 {
		at = c.freeAttempts[n-1]
		c.freeAttempts = c.freeAttempts[:n-1]
	} else {
		at = &attempt{c: c}
	}
	at.ts = c.issueTS()
	at.exec = workload.NewExecutor()
	return at
}

// releaseAttempt returns an attempt to the free list. Callers may only
// release when nothing in flight still refers to the attempt or its slots.
// Fully local outcomes and distributed cold commits qualify at once (every
// participant handler has run before the commit continuation fires). The
// others count down first: warm commits their multicast commit handlers
// (warmFrame.settle), aborts their rollback messages (Context.settle).
func (c *Context) releaseAttempt(at *attempt) {
	for _, s := range at.slots[:at.used] {
		if s.lt.NumHeld() != 0 {
			panic("engine: attempt released while it holds locks")
		}
	}
	at.used = 0
	at.inner = nil
	at.lm = nil
	at.onCommit = nil
	at.undo = at.undo[:0]
	// The WAL copies what it logs, so the buffer stays with the attempt;
	// an aborting attempt's uncommitted images are discarded here.
	at.writes = at.writes[:0]
	c.freeAttempts = append(c.freeAttempts, at)
}

// slot returns (claiming on first touch) the attempt's slot at node id.
func (at *attempt) slot(id netsim.NodeID) *nodeSlot {
	for _, s := range at.slots[:at.used] {
		if s.id == id {
			return s
		}
	}
	var s *nodeSlot
	if at.used < len(at.slots) {
		s = at.slots[at.used]
		s.lt.Reset(at.ts)
	} else {
		s = &nodeSlot{at: at, lt: lock.NewTxn(at.ts)}
		s.prepareFn, s.preparedFn = s.prepare, s.prepared
		s.commitFn, s.abortFn, s.rollbackFn = s.commit, s.abort, s.rollback
		at.slots = append(at.slots, s)
	}
	s.id = id
	at.used++
	return s
}

// lockTxn returns (creating on demand) the attempt's lock context at node.
func (at *attempt) lockTxn(id netsim.NodeID) *lock.Txn { return at.slot(id).lt }

// innerTxn returns the Chiller inner-region lock context at node.
func (at *attempt) innerTxn(id netsim.NodeID) *lock.Txn {
	if at.inner == nil {
		at.inner = make(map[netsim.NodeID]*lock.Txn, 2)
	}
	t, ok := at.inner[id]
	if !ok {
		t = lock.NewTxn(at.ts)
		at.inner[id] = t
	}
	return t
}

// participants lists the 2PC participants: the nodes other than self where
// the attempt holds (outer) locks, in first-touch order, with the slots'
// handlers. The returned slice aliases the attempt's reusable buffer: it
// is valid until the next call or the attempt's release.
func (at *attempt) participants(self netsim.NodeID) []twopc.Participant {
	parts := at.parts[:0]
	for _, s := range at.slots[:at.used] {
		if s.id != self {
			parts = append(parts, twopc.Participant{Node: s.id, PrepareK: s.prepareFn, Commit: s.commitFn, Abort: s.abortFn})
		}
	}
	at.parts = parts
	return parts
}

// applyOp executes one operation against a node's store, capturing undo
// and redo images.
func (c *Context) applyOp(at *attempt, id netsim.NodeID, op workload.Op) {
	tb := c.Nodes[id].store.Table(op.Table)
	if op.Kind.IsWrite() {
		at.undo = append(at.undo, undoRec{
			node: id, table: op.Table, key: op.Key, field: op.Field,
			old: tb.Get(op.Key, op.Field),
		})
	}
	at.exec.Apply(tb, op)
	if op.Kind.IsWrite() && c.Durable {
		at.writes = append(at.writes, wal.ColdWrite{
			Table: op.Table, Key: op.Key, Field: op.Field,
			Value: tb.Get(op.Key, op.Field),
		})
	}
}

// lockMode maps an operation to its lock mode.
func lockMode(op workload.Op) lock.Mode {
	if op.Kind.IsWrite() {
		return lock.Exclusive
	}
	return lock.Shared
}

// opsFrame is the pooled per-attempt state machine behind execOpsK: one
// operation at a time, acquiring locks and executing under 2PL, visiting
// remote nodes over the network. All continuations are method values
// cached at construction, so driving a frame through an arbitrary number
// of operations performs no allocation.
type opsFrame struct {
	c    *Context
	n    *Node
	at   *attempt
	ops  []workload.Op
	i    int
	t0   sim.Time
	t1   sim.Time
	lerr error
	k    func(error)

	rdone func() // in-flight remote reply continuation

	stepFn       func()
	lockStepFn   func()
	onLocalLckFn func(error)
	localApplyFn func()
	remoteBodyFn func(func())
	remoteLockFn func()
	onRemoteLkFn func(error)
	remoteApplFn func()
	remoteDoneFn func()
}

func (c *Context) getOpsFrame() *opsFrame {
	if n := len(c.freeOpsFrames); n > 0 {
		f := c.freeOpsFrames[n-1]
		c.freeOpsFrames = c.freeOpsFrames[:n-1]
		return f
	}
	f := &opsFrame{c: c}
	f.stepFn = f.step
	f.lockStepFn = f.lockStep
	f.onLocalLckFn = f.onLocalLock
	f.localApplyFn = f.localApply
	f.remoteBodyFn = f.remoteBody
	f.remoteLockFn = f.remoteLock
	f.onRemoteLkFn = f.onRemoteLock
	f.remoteApplFn = f.remoteApply
	f.remoteDoneFn = f.remoteDone
	return f
}

func (c *Context) putOpsFrame(f *opsFrame) {
	f.n, f.at, f.ops, f.k, f.rdone = nil, nil, nil, nil, nil
	f.i, f.lerr = 0, nil
	c.freeOpsFrames = append(c.freeOpsFrames, f)
}

// execOpsK acquires locks and executes the given operations under 2PL,
// visiting remote nodes over the network. On a lock conflict it rolls the
// attempt back (releasing everything) and hands k the abort error. It
// schedules the exact same events as the retired process-form loop, so
// seeded schedules are unchanged.
func (c *Context) execOpsK(n *Node, at *attempt, ops []workload.Op, k func(error)) {
	if len(ops) == 0 {
		k(nil)
		return
	}
	f := c.getOpsFrame()
	f.n, f.at, f.ops, f.k = n, at, ops, k
	f.i = 0
	f.step()
}

// step dispatches the next operation (or finishes the frame).
func (f *opsFrame) step() {
	if f.i >= len(f.ops) {
		k := f.k
		f.c.putOpsFrame(f)
		k(nil)
		return
	}
	op := f.ops[f.i]
	f.t0 = f.c.Env.Now()
	if op.Home == f.n.id {
		f.c.Env.After(f.c.Costs.LockOp, f.lockStepFn)
	} else {
		f.c.Net.RPCK(f.n.id, op.Home, f.remoteBodyFn, f.remoteDoneFn)
	}
}

func (f *opsFrame) lockStep() {
	op := f.ops[f.i]
	f.n.locks.AcquireK(f.at.lockTxn(f.n.id), lock.Key(op.LockKey()), lockMode(op), f.onLocalLckFn)
}

func (f *opsFrame) onLocalLock(err error) {
	f.c.charge(f.n, metrics.LockAcquisition, f.t0)
	if err != nil {
		f.fail(err)
		return
	}
	f.t1 = f.c.Env.Now()
	f.c.Env.After(f.c.Costs.LocalAccess, f.localApplyFn)
}

func (f *opsFrame) localApply() {
	f.c.applyOp(f.at, f.n.id, f.ops[f.i])
	f.c.charge(f.n, metrics.LocalAccess, f.t1)
	f.i++
	f.step()
}

// remoteBody runs "at" the remote node: lock-op cost, acquire, and on
// success the tuple access — then the reply leg travels back via done.
func (f *opsFrame) remoteBody(done func()) {
	f.rdone = done
	f.c.Env.After(f.c.Costs.LockOp, f.remoteLockFn)
}

func (f *opsFrame) remoteLock() {
	op := f.ops[f.i]
	rn := f.c.Nodes[op.Home]
	rn.locks.AcquireK(f.at.lockTxn(op.Home), lock.Key(op.LockKey()), lockMode(op), f.onRemoteLkFn)
}

func (f *opsFrame) onRemoteLock(err error) {
	f.lerr = err
	if err != nil {
		f.rdone()
		return
	}
	f.c.Env.After(f.c.Costs.LocalAccess, f.remoteApplFn)
}

func (f *opsFrame) remoteApply() {
	op := f.ops[f.i]
	f.c.applyOp(f.at, op.Home, op)
	f.rdone()
}

func (f *opsFrame) remoteDone() {
	f.c.charge(f.n, metrics.RemoteAccess, f.t0)
	if f.lerr != nil {
		err := f.lerr
		f.lerr = nil
		f.fail(err)
		return
	}
	f.i++
	f.step()
}

// fail aborts the attempt and completes the frame with err.
func (f *opsFrame) fail(err error) {
	f.c.abort(f.n, f.at)
	k := f.k
	f.c.putOpsFrame(f)
	k(err)
}

// abort rolls back every write of the attempt and releases all locks.
// Local state unwinds immediately; remote nodes are notified with one-way
// messages, in first-touch order (their locks stay held for the message
// latency, as on a real network). The attempt is recycled when the last of
// those messages has been delivered — at once when the rollback is local.
func (c *Context) abort(n *Node, at *attempt) {
	at.refs++ // abort's own, so no early delivery can release under it
	for _, s := range at.slots[:at.used] {
		if s.id == n.id {
			s.abort()
			continue
		}
		at.refs++
		c.Net.Send(n.id, s.id, s.rollbackFn)
	}
	if lm := at.lm; lm != nil {
		// The message carries the lock context itself, not the attempt.
		c.Net.SendToSwitch(n.id, func() { c.LMLocks.ReleaseAll(lm) })
	}
	c.settle(at)
}

// settle retires one reference to an aborting attempt and recycles it
// with the last.
func (c *Context) settle(at *attempt) {
	if at.refs--; at.refs == 0 {
		c.releaseAttempt(at)
	}
}

// coldFrame is the pooled state machine behind execColdK/commitColdK —
// the cold path of P4DB and the whole No-Switch baseline under 2PL/2PC.
type coldFrame struct {
	c   *Context
	n   *Node
	txn *workload.Txn
	at  *attempt
	t0  sim.Time
	k   func(error)

	startFn    func()
	opsDoneFn  func(error)
	decidedFn  func(bool)
	commitedFn func(bool)
	logDoneFn  func()
}

func (c *Context) getColdFrame() *coldFrame {
	if n := len(c.freeColdFrames); n > 0 {
		f := c.freeColdFrames[n-1]
		c.freeColdFrames = c.freeColdFrames[:n-1]
		return f
	}
	f := &coldFrame{c: c}
	f.startFn = f.start
	f.opsDoneFn = f.opsDone
	f.decidedFn = f.decided
	f.commitedFn = f.committed
	f.logDoneFn = f.logDone
	return f
}

func (c *Context) putColdFrame(f *coldFrame) {
	f.n, f.txn, f.at, f.k = nil, nil, nil, nil
	c.freeColdFrames = append(c.freeColdFrames, f)
}

// execColdK executes an entire transaction under 2PL/2PC. P4DB and
// Chiller also fall back to it when a transaction's dependencies cross
// the temperature split.
func (c *Context) execColdK(n *Node, txn *workload.Txn, k func(error)) {
	f := c.getColdFrame()
	f.n, f.txn, f.k = n, txn, k
	f.at = c.newAttempt()
	f.t0 = c.Env.Now()
	c.Env.After(c.Costs.TxnOverhead, f.startFn)
}

func (f *coldFrame) start() {
	f.c.charge(f.n, metrics.TxnEngine, f.t0)
	f.c.execOpsK(f.n, f.at, f.txn.Ops, f.opsDoneFn)
}

func (f *coldFrame) opsDone(err error) {
	if err != nil {
		k := f.k
		f.c.putColdFrame(f)
		k(err)
		return
	}
	// commitColdK inlined: single-node commits log and release locally;
	// distributed commits run 2PC over the remote participants first.
	f.t0 = f.c.Env.Now()
	parts := f.at.participants(f.n.id)
	if len(parts) == 0 {
		f.c.Env.After(f.c.Costs.LogAppend, f.logDoneFn)
		return
	}
	f.c.coordOf(f.n).CommitDecidedK(parts, f.decidedFn, f.commitedFn)
}

// decided runs synchronously at the 2PC decision point, before the
// decision round is scheduled: presumed-abort logging retains the commit
// record the instant the outcome is known, so a coordinator crash after
// this point can redo the transaction from its log. Only commit decisions
// leave a record. With Durable off the attempt captured no redo images
// and nothing is retained.
func (f *coldFrame) decided(commit bool) {
	if commit && f.c.Durable {
		f.n.log.AppendCold(f.at.ts, f.at.writes)
		f.at.writes = f.at.writes[:0] // logged: logDone must not log it again
	}
}

func (f *coldFrame) committed(bool) {
	f.c.Env.After(f.c.Costs.LogAppend, f.logDoneFn)
}

func (f *coldFrame) logDone() {
	f.n.log.AppendCold(f.at.ts, f.at.writes)
	f.at.writes = f.at.writes[:0]
	f.n.locks.ReleaseAll(f.at.lockTxn(f.n.id))
	f.c.charge(f.n, metrics.TxnEngine, f.t0)
	// Local commits and distributed cold commits are both safe to recycle:
	// by the time the coordinator's continuation ran, every participant
	// handler (the attempt's slots) has executed.
	f.c.releaseAttempt(f.at)
	k := f.k
	f.c.putColdFrame(f)
	k(nil)
}

// commitColdK commits the attempt's node-side state and calls k: a
// single-node commit logs and releases locally; a distributed commit runs
// 2PC over the remote participants first, retaining the commit record at
// the decision point when Durable (see coldFrame.decided). The cold frame
// inlines this sequence; the LM-Switch and fallback paths call it
// directly.
func (c *Context) commitColdK(n *Node, at *attempt, k func()) {
	t0 := c.Env.Now()
	fin := func() {
		c.Env.After(c.Costs.LogAppend, func() {
			n.log.AppendCold(at.ts, at.writes)
			at.writes = at.writes[:0]
			n.locks.ReleaseAll(at.lockTxn(n.id))
			c.charge(n, metrics.TxnEngine, t0)
			k()
		})
	}
	parts := at.participants(n.id)
	if len(parts) == 0 {
		fin()
		return
	}
	c.coordOf(n).CommitDecidedK(parts, func(commit bool) {
		if commit && c.Durable {
			n.log.AppendCold(at.ts, at.writes)
			at.writes = at.writes[:0]
		}
	}, func(bool) { fin() })
}
