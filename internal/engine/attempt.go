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
// Attempts are free-listed on the Context: the worker hot path recycles
// them (together with their lock contexts) instead of allocating, so
// steady-state cold execution performs no per-attempt heap allocation.
type attempt struct {
	ts     uint64
	locks  map[netsim.NodeID]*lock.Txn
	inner  map[netsim.NodeID]*lock.Txn // Chiller's inner-region locks
	lm     *lock.Txn                   // LM-Switch central locks
	undo   []undoRec
	writes []wal.ColdWrite
	exec   workload.Executor

	// remotes is the reusable buffer behind remoteNodes; it lives on the
	// attempt so commit-path participant discovery allocates nothing at
	// steady state.
	remotes []netsim.NodeID

	// freeLT recycles lock contexts across incarnations of this attempt.
	freeLT []*lock.Txn
}

// newAttempt returns a fresh or recycled attempt stamped with the next
// cluster-unique timestamp.
func (c *Context) newAttempt() *attempt {
	if n := len(c.freeAttempts); n > 0 {
		at := c.freeAttempts[n-1]
		c.freeAttempts = c.freeAttempts[:n-1]
		at.ts = c.issueTS()
		at.exec = workload.NewExecutor()
		return at
	}
	return &attempt{
		ts:    c.issueTS(),
		locks: make(map[netsim.NodeID]*lock.Txn, 2),
		exec:  workload.NewExecutor(),
	}
}

// releaseAttempt returns an attempt to the free list. Callers may only
// release when no in-flight closure still references the attempt: fully
// local outcomes and distributed cold commits qualify (every participant
// handler has run before the commit continuation fires), and warm commits
// count their multicast commit handlers down first (warmFrame.settle);
// distributed aborts leak the attempt instead, because their one-way
// rollback messages may still be travelling.
func (c *Context) releaseAttempt(at *attempt) {
	for id, lt := range at.locks {
		at.freeLT = append(at.freeLT, lt)
		delete(at.locks, id)
	}
	at.inner = nil
	at.lm = nil
	at.undo = at.undo[:0]
	// writes may have been handed to the WAL by reference; the committing
	// path nils it out, the abort path discards uncommitted images here.
	at.writes = nil
	c.freeAttempts = append(c.freeAttempts, at)
}

// lockTxn returns (creating on demand) the attempt's lock context at node.
func (at *attempt) lockTxn(id netsim.NodeID) *lock.Txn {
	t, ok := at.locks[id]
	if !ok {
		if n := len(at.freeLT); n > 0 {
			t = at.freeLT[n-1]
			at.freeLT = at.freeLT[:n-1]
			t.Reset(at.ts)
		} else {
			t = lock.NewTxn(at.ts)
		}
		at.locks[id] = t
	}
	return t
}

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

// remoteNodes lists the nodes other than self where the attempt holds
// (outer) locks — the 2PC participants. The returned slice aliases the
// attempt's reusable buffer: it is valid until the next remoteNodes call
// on this attempt, which every caller consumes it before.
func (at *attempt) remoteNodes(self netsim.NodeID) []netsim.NodeID {
	out := at.remotes[:0]
	for id := range at.locks {
		if id != self {
			out = append(out, id)
		}
	}
	at.remotes = out
	return out
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
// messages (their locks stay held for the message latency, as on a real
// network). When the rollback is fully local the attempt is recycled;
// otherwise the in-flight messages keep it alive and it is leaked to the
// garbage collector.
func (c *Context) abort(n *Node, at *attempt) {
	// Per-node rollback walks the undo log in reverse, filtered by node —
	// the same per-node application order the old node-keyed grouping gave,
	// without building a map per abort. Undo logs are short (one entry per
	// write), so the nodes × undo scan is cheaper than grouping.
	rollback := func(id netsim.NodeID) {
		for i := len(at.undo) - 1; i >= 0; i-- {
			if u := at.undo[i]; u.node == id {
				c.Nodes[id].store.Table(u.table).Set(u.key, u.field, u.old)
			}
		}
	}
	remoteRefs := false
	for id, lt := range at.locks {
		if id == n.id {
			rollback(id)
			n.locks.ReleaseAll(lt)
			continue
		}
		remoteRefs = true
		id, lt := id, lt
		// The attempt is leaked (never recycled) whenever remote messages
		// are in flight, so the closure's view of at.undo stays intact
		// until delivery.
		c.Net.Send(n.id, id, func() {
			rollback(id)
			c.Nodes[id].locks.ReleaseAll(lt)
		})
	}
	if at.lm != nil {
		remoteRefs = true
		lm := at.lm
		c.Net.SendToSwitch(n.id, func() { c.LMLocks.ReleaseAll(lm) })
	}
	if !remoteRefs {
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
	loc bool // single-node commit (safe to recycle the attempt)
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
	remotes := f.at.remoteNodes(f.n.id)
	if len(remotes) == 0 {
		f.loc = true
		f.c.Env.After(f.c.Costs.LogAppend, f.logDoneFn)
		return
	}
	f.loc = false
	f.c.coordOf(f.n).CommitDecidedK(f.c.coldParticipants(f.at, remotes, nil), f.decidedFn, f.commitedFn)
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
		f.at.writes = nil // the WAL record owns the slice now
	}
}

func (f *coldFrame) committed(bool) {
	f.c.Env.After(f.c.Costs.LogAppend, f.logDoneFn)
}

func (f *coldFrame) logDone() {
	f.n.log.AppendCold(f.at.ts, f.at.writes)
	f.at.writes = nil // the WAL record owns the slice now
	f.n.locks.ReleaseAll(f.at.lockTxn(f.n.id))
	f.c.charge(f.n, metrics.TxnEngine, f.t0)
	// Local commits and distributed cold commits are both safe to recycle:
	// by the time CommitK's continuation ran, every participant handler
	// (which references the attempt's lock contexts) has executed.
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
			at.writes = nil
			n.locks.ReleaseAll(at.lockTxn(n.id))
			c.charge(n, metrics.TxnEngine, t0)
			k()
		})
	}
	remotes := at.remoteNodes(n.id)
	if len(remotes) == 0 {
		fin()
		return
	}
	c.coordOf(n).CommitDecidedK(c.coldParticipants(at, remotes, nil), func(commit bool) {
		if commit && c.Durable {
			n.log.AppendCold(at.ts, at.writes)
			at.writes = nil
		}
	}, func(bool) { fin() })
}

// coldParticipants builds the 2PC participant handlers for the attempt's
// remote nodes: prepare appends the participant's log record, commit
// releases its locks, abort rolls its writes back first. Both the process
// and continuation prepare forms are provided so either coordinator style
// can drive the round. committed, when non-nil, runs after each commit
// handler — the warm path counts them down to know when nothing in flight
// refers to the attempt anymore.
func (c *Context) coldParticipants(at *attempt, remotes []netsim.NodeID, committed func()) []twopc.Participant {
	parts := make([]twopc.Participant, 0, len(remotes))
	for _, id := range remotes {
		id := id
		rn := c.Nodes[id]
		parts = append(parts, twopc.Participant{
			Node: id,
			Prepare: func(sp *sim.Proc) bool {
				sp.Sleep(c.Costs.LogAppend)
				return true
			},
			PrepareK: func(done func(bool)) {
				c.Env.After(c.Costs.LogAppend, func() { done(true) })
			},
			Commit: func() {
				rn.locks.ReleaseAll(at.lockTxn(id))
				if committed != nil {
					committed()
				}
			},
			Abort: func() {
				for i := len(at.undo) - 1; i >= 0; i-- {
					u := at.undo[i]
					if u.node == id {
						rn.store.Table(u.table).Set(u.key, u.field, u.old)
					}
				}
				rn.locks.ReleaseAll(at.lockTxn(id))
			},
		})
	}
	return parts
}
