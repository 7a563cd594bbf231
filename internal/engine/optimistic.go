package engine

import (
	"fmt"

	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/twopc"
	"repro/internal/txnwire"
	"repro/internal/wal"
	"repro/internal/workload"
)

// This file holds the shared transaction drivers of the validating CC
// families (OCC and MVCC). Both execute against a private view without
// locks, then validate and pin at commit, so their cold 2PC round and
// their vote-first warm path (Appendix A.4: the cold part must be certain
// to commit before the switch sub-transaction runs) are the same
// choreography; only the attempt's state machine — what a read observes,
// what validation checks, how writes install — differs per scheme. The
// voteFirst interface captures exactly that difference, so a new
// validating scheme implements an attempt type and reuses these drivers.

// voteFirst is one optimistic execution attempt as the shared drivers see
// it: private-view execution, validate-and-pin commit, asynchronous abort.
type voteFirst interface {
	// txnTS is the attempt's begin timestamp (WAL transaction id).
	txnTS() uint64
	// applyOp executes one operation against the attempt's private view
	// at node n, mirroring the Executor/switch semantics exactly.
	applyOp(n *Node, op workload.Op)
	// validateAndPin checks the attempt at node n and pins its conflict
	// set there; it must run without intervening virtual time (it models
	// a short latch-protected critical section).
	validateAndPin(n *Node) bool
	// unpin releases the attempt's pins at node n.
	unpin(n *Node)
	// install applies the buffered writes at node n and releases the pins.
	install(c *Context, n *Node)
	// readDone runs once the operation phase is over (MVCC retires its
	// snapshot so the GC watermark can advance); no virtual time.
	readDone(c *Context)
	// sealed runs once local validation passed (MVCC draws its commit
	// stamp); no virtual time.
	sealed(c *Context)
	// pinnedNodes lists the nodes where the attempt holds pins.
	pinnedNodes() []netsim.NodeID
	// clearPinned resets the pin bookkeeping after an abort broadcast.
	clearPinned()
	// coldWrites is the redo log record of the buffered writes.
	coldWrites() []wal.ColdWrite
	// remoteNodes lists the 2PC participants other than self.
	remoteNodes(self netsim.NodeID) []netsim.NodeID
	// abortErr is the scheme's abort reason (satisfies lock.ErrAbort).
	abortErr() error
}

// bufferedAttempt is the storage every validating scheme's attempt
// shares: the begin timestamp, the transaction's Executor state, the
// buffered write set with its per-node bookkeeping, and the pin trail.
// Scheme attempts embed it and add their own read-tracking state.
type bufferedAttempt struct {
	ts      uint64
	exec    workload.Executor
	overlay map[netsim.NodeID]map[store.GlobalKey]int64 // buffered writes (field-qualified)
	wrote   map[netsim.NodeID]map[lock.Key]struct{}     // rows with buffered writes
	writes  []wal.ColdWrite
	pinned  []netsim.NodeID // nodes where the attempt holds pins
	durable bool            // retain redo images for the WAL (Context.Durable)
}

func newBufferedAttempt(c *Context) bufferedAttempt {
	return bufferedAttempt{
		ts:      c.issueTS(),
		exec:    workload.NewExecutor(),
		overlay: make(map[netsim.NodeID]map[store.GlobalKey]int64, 2),
		wrote:   make(map[netsim.NodeID]map[lock.Key]struct{}, 2),
		durable: c.Durable,
	}
}

func (at *bufferedAttempt) txnTS() uint64                { return at.ts }
func (at *bufferedAttempt) executor() *workload.Executor { return &at.exec }
func (at *bufferedAttempt) pinnedNodes() []netsim.NodeID { return at.pinned }
func (at *bufferedAttempt) clearPinned()                 { at.pinned = nil }
func (at *bufferedAttempt) coldWrites() []wal.ColdWrite  { return at.writes }

// buffer stages a write in the overlay.
func (at *bufferedAttempt) buffer(n *Node, op workload.Op, v int64) {
	ov := at.overlay[n.id]
	if ov == nil {
		ov = make(map[store.GlobalKey]int64, 4)
		at.overlay[n.id] = ov
	}
	ov[op.TupleKey()] = v
	w := at.wrote[n.id]
	if w == nil {
		w = make(map[lock.Key]struct{}, 4)
		at.wrote[n.id] = w
	}
	w[lock.Key(op.LockKey())] = struct{}{}
	if at.durable {
		at.writes = append(at.writes, wal.ColdWrite{Table: op.Table, Key: op.Key, Field: op.Field, Value: v})
	}
}

// bufferedView is a private read/write view over buffered writes — the
// part of an attempt the shared op interpreter needs.
type bufferedView interface {
	// view reads a field through the attempt's overlay, falling back to
	// the scheme's read rule (store, snapshot, ...).
	view(n *Node, op workload.Op) int64
	// buffer stages a write in the overlay.
	buffer(n *Node, op workload.Op, v int64)
	// executor is the transaction's accumulator/ok-flag state.
	executor() *workload.Executor
}

// applyBufferedOp executes one operation against a buffered private view,
// mirroring the Executor/switch semantics exactly. It is the single copy
// of the op-kind interpretation the validating schemes share.
func applyBufferedOp(at bufferedView, n *Node, op workload.Op) {
	cur := at.view(n, op)
	ex := at.executor()
	switch op.Kind {
	case workload.Read:
		// value observed via view; nothing to write
	case workload.Write:
		at.buffer(n, op, op.Value)
	case workload.Add:
		at.buffer(n, op, cur+op.Value)
	case workload.CondAddGE0:
		if cur+op.Value >= 0 {
			at.buffer(n, op, cur+op.Value)
		} else {
			ex.OK = false
		}
	case workload.ReadClear:
		ex.Acc += cur
		at.buffer(n, op, 0)
	case workload.AddAcc:
		at.buffer(n, op, cur+ex.Acc+op.Value)
	case workload.AddIfOK:
		if ex.OK {
			at.buffer(n, op, cur+op.Value)
		}
	default:
		panic(fmt.Sprintf("engine: unknown op kind %d", op.Kind))
	}
}

// execOptimisticOpsK runs the operations against the attempt's private
// view, visiting remote nodes over the network for their reads (the
// buffered writes travel with the transaction and are shipped at commit).
// One operation completes before the next is dispatched.
func (c *Context) execOptimisticOpsK(n *Node, at voteFirst, ops []workload.Op, k func()) {
	i := 0
	var t0 sim.Time
	var step func()
	step = func() {
		if i >= len(ops) {
			k()
			return
		}
		op := ops[i]
		t0 = c.Env.Now()
		if op.Home == n.id {
			c.Env.After(c.Costs.LocalAccess, func() {
				at.applyOp(n, op)
				c.charge(n, metrics.LocalAccess, t0)
				i++
				step()
			})
			return
		}
		c.Net.RPCK(n.id, op.Home, func(done func()) {
			c.Env.After(c.Costs.LocalAccess, func() {
				at.applyOp(c.Nodes[op.Home], op)
				done()
			})
		}, func() {
			c.charge(n, metrics.RemoteAccess, t0)
			i++
			step()
		})
	}
	step()
}

// abortOptimistic releases all pins (nothing was applied yet). Remote
// nodes are notified asynchronously, like the 2PL abort path.
func (c *Context) abortOptimistic(n *Node, at voteFirst) {
	for _, id := range at.pinnedNodes() {
		if id == n.id {
			at.unpin(c.Nodes[id])
			continue
		}
		id := id
		c.Net.Send(n.id, id, func() { at.unpin(c.Nodes[id]) })
	}
	at.clearPinned()
}

// optimisticParticipants builds the 2PC participants for the attempt's
// remote nodes: prepare = validate + pin (+ log), commit = install,
// abort = unpin.
func (c *Context) optimisticParticipants(at voteFirst, remotes []netsim.NodeID) []twopc.Participant {
	parts := make([]twopc.Participant, 0, len(remotes))
	for _, id := range remotes {
		rn := c.Nodes[id]
		parts = append(parts, twopc.Participant{
			Node: id,
			PrepareK: func(done func(bool)) {
				c.Env.After(c.Costs.LogAppend, func() { done(at.validateAndPin(rn)) })
			},
			Commit: func() { at.install(c, rn) },
			Abort:  func() { at.unpin(rn) },
		})
	}
	return parts
}

// execOptimisticTxnK executes an entire cold transaction under a
// validating scheme. Each exit charges TxnEngine before handing the outcome
// to k.
func (c *Context) execOptimisticTxnK(n *Node, txn *workload.Txn, at voteFirst, k func(error)) {
	t0 := c.Env.Now()
	c.Env.After(c.Costs.TxnOverhead, func() {
		c.charge(n, metrics.TxnEngine, t0)
		c.execOptimisticOpsK(n, at, txn.Ops, func() {
			at.readDone(c)
			t1 := c.Env.Now()
			// Local validation first: a cheap early abort.
			if !at.validateAndPin(n) {
				c.abortOptimistic(n, at)
				c.charge(n, metrics.TxnEngine, t1)
				k(at.abortErr())
				return
			}
			at.sealed(c)
			commit := func() {
				c.Env.After(c.Costs.LogAppend, func() {
					n.log.AppendCold(at.txnTS(), at.coldWrites())
					at.install(c, n)
					c.charge(n, metrics.TxnEngine, t1)
					k(nil)
				})
			}
			remotes := at.remoteNodes(n.id)
			if len(remotes) == 0 {
				commit()
				return
			}
			c.coordOf(n).CommitK(c.optimisticParticipants(at, remotes), func(ok bool) {
				if !ok {
					c.abortOptimistic(n, at)
					c.charge(n, metrics.TxnEngine, t1)
					k(at.abortErr())
					return
				}
				commit()
			})
		})
	})
}

// execOptimisticWarmK executes a warm transaction per Appendix A.4: the
// cold part validates first (so it cannot abort anymore), then the switch
// sub-transaction runs inside the combined Decision&Switch phase, and the
// buffered writes apply when the multicast decision arrives.
func (c *Context) execOptimisticWarmK(n *Node, txn *workload.Txn, newAt func() voteFirst, k func(error)) {
	// The warm scheme runs all cold operations strictly before the switch
	// sub-transaction, so a dependency crossing the temperature split
	// cannot be honoured — fall back to the fully cold path (see
	// execWarmK).
	if crossTemperatureDeps(txn, func(op workload.Op) bool { return c.OnSwitch(op) }) {
		c.execOptimisticTxnK(n, txn, newAt(), k)
		return
	}
	at := newAt()
	t0 := c.Env.Now()
	c.Env.After(c.Costs.TxnOverhead, func() {
		c.charge(n, metrics.TxnEngine, t0)

		var coldOps, hotOps []workload.Op
		for _, op := range txn.Ops {
			if c.OnSwitch(op) {
				hotOps = append(hotOps, op)
			} else {
				coldOps = append(coldOps, op)
			}
		}
		c.execOptimisticOpsK(n, at, coldOps, func() {
			at.readDone(c)
			if !at.validateAndPin(n) {
				c.abortOptimistic(n, at)
				k(at.abortErr())
				return
			}
			at.sealed(c)

			// Vote first: unlike the 2PL warm path, participants can refuse
			// (their validation may fail), and the switch intent must only
			// be logged — i.e. the transaction only counts as committed —
			// once the cold part is certain to commit.
			t1 := c.Env.Now()
			remotes := at.remoteNodes(n.id)
			coord := c.coordOf(n)
			parts := c.optimisticParticipants(at, remotes)
			proceed := func() {
				st := new(switchTxn)
				st.compileOps(c, hotOps, at.txnTS())
				c.Env.After(c.Costs.LogAppend, func() {
					st.intent(c, n)
					coord.SwitchPhaseK(parts, func(done func()) {
						c.Sw.ExecK(&st.pkt, func(resp *txnwire.Response, xerr error) {
							if xerr != nil {
								panic(fmt.Sprintf("engine: switch rejected warm optimistic packet: %v", xerr))
							}
							if c.Durable {
								n.log.Complete(st.rec, resp)
							}
							done()
						})
					}, func() {
						c.charge(n, metrics.SwitchTxn, t1)
						t2 := c.Env.Now()
						c.Env.After(c.Costs.LogAppend, func() {
							n.log.AppendCold(at.txnTS(), at.coldWrites())
							at.install(c, n)
							c.charge(n, metrics.TxnEngine, t2)
							st.countPasses(c, n)
							k(nil)
						})
					})
				})
			}
			if len(remotes) == 0 {
				proceed()
				return
			}
			coord.PrepareK(parts, func(ok bool) {
				if !ok {
					coord.FinishK(parts, false, func() {
						c.abortOptimistic(n, at)
						c.charge(n, metrics.TxnEngine, t1)
						k(at.abortErr())
					})
					return
				}
				proceed()
			})
		})
	})
}
