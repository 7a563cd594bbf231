package engine

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/txnwire"
	"repro/internal/workload"
)

func init() { Register(p4dbEngine{}) }

// p4dbEngine is P4DB itself (Sections 3, 5 and 6): hot transactions
// compile to one switch packet and execute abort-free in the data plane;
// cold transactions run under the configured host CC scheme (2PL, OCC or
// MVCC); warm transactions execute their cold part first and trigger the
// switch sub-transaction inside the combined Decision&Switch commit phase
// (Figure 10).
type p4dbEngine struct{}

func (p4dbEngine) Name() string  { return "p4db" }
func (p4dbEngine) Label() string { return "P4DB" }

// Prepare offloads the detected hot tuples into the switch registers:
// current tuple values are loaded from their home nodes into the slots the
// declustered layout assigned (the last step of Figure 3).
func (p4dbEngine) Prepare(ctx *Context) error {
	ctx.UseSwitch = true
	for _, tid := range ctx.Layout.Tuples() {
		gk := store.GlobalKey(tid)
		table, field, key := gk.SplitField()
		home := ctx.Gen.Home(table, key)
		v := ctx.Nodes[home].store.Table(table).Get(key, field)
		s, _ := ctx.Layout.SlotOf(tid)
		ctx.Sw.WriteRegister(s.Stage, s.Array, s.Index, v)
	}
	return nil
}

func (p4dbEngine) Execute(ctx *Context, n *Node, txn *workload.Txn, k func(Class, error)) {
	switch ctx.Classify(txn) {
	case ClassHot:
		ctx.ExecHotK(n, txn, k)
	case ClassWarm:
		ctx.Scheme.ExecWarm(ctx, n, txn, ctx.wrapClass(ClassWarm, k))
	default:
		ctx.Scheme.ExecCold(ctx, n, txn, ctx.wrapClass(ClassCold, k))
	}
}

// warmFrame is the pooled state machine behind execWarmK: the cold part
// runs first under 2PL; once it cannot abort anymore, the switch
// sub-transaction is sent inside the combined Decision&Switch phase and
// participants commit on the switch's multicast (Section 6.2, Figure 10).
// It shares the compile -> intent -> switch steps with hotFrame through
// switchTxn. Continuations are method values cached at construction.
type warmFrame struct {
	c    *Context
	n    *Node
	txn  *workload.Txn
	at   *attempt
	next int // first operation coldRun has not looked at yet
	sw   switchTxn
	t0   sim.Time
	k    func(error)

	sdone func() // in-flight switch completion continuation
	// pending counts what still refers to the attempt once the commit is
	// decided: the remote participants' multicast commit handlers plus the
	// coordinator's own log step. The attempt (and the frame) recycle when
	// it drains.
	pending int

	startFn      func()
	coldRunFn    func(error)
	intentFn     func()
	switchBodyFn func(func())
	onRespFn     func(*txnwire.Response, error)
	committedFn  func(bool)
	logDoneFn    func()
	settleFn     func()
}

func (c *Context) getWarmFrame() *warmFrame {
	if n := len(c.freeWarmFrames); n > 0 {
		f := c.freeWarmFrames[n-1]
		c.freeWarmFrames = c.freeWarmFrames[:n-1]
		return f
	}
	f := &warmFrame{c: c}
	f.startFn = f.start
	f.coldRunFn = f.coldRun
	f.intentFn = f.intent
	f.switchBodyFn = f.switchBody
	f.onRespFn = f.onResp
	f.committedFn = f.committed
	f.logDoneFn = f.logDone
	f.settleFn = f.settle
	return f
}

func (c *Context) putWarmFrame(f *warmFrame) {
	f.n, f.txn, f.at, f.k = nil, nil, nil, nil
	f.sdone = nil
	c.freeWarmFrames = append(c.freeWarmFrames, f)
}

// execWarmK executes a warm transaction (Section 6.2) under 2PL.
func (c *Context) execWarmK(n *Node, txn *workload.Txn, k func(error)) {
	// The warm scheme runs all cold operations strictly before the switch
	// sub-transaction, so a dependency that crosses the temperature split
	// (possible when part of a hot pair spilled off the switch, Figure 17)
	// cannot be honoured — those transactions fall back to the fully cold
	// path, like the paper's alternative of keeping such tuples together.
	if crossTemperatureDeps(txn, func(op workload.Op) bool { return c.OnSwitch(op) }) {
		c.execColdK(n, txn, k)
		return
	}
	f := c.getWarmFrame()
	f.n, f.txn, f.k = n, txn, k
	f.at = c.newAttempt()
	f.t0 = c.Env.Now()
	c.Env.After(c.Costs.TxnOverhead, f.startFn)
}

func (f *warmFrame) start() {
	f.c.charge(f.n, metrics.TxnEngine, f.t0)
	f.sw.reset()
	f.next = 0
	f.coldRun(nil)
}

// coldRun walks the transaction's operations in order: switch-resident ones
// join the sub-transaction, each maximal run of cold ones executes under
// 2PL (one after the other, exactly as if they had been gathered into one
// list first) and re-enters here. When the operations are exhausted the
// cold part can no longer abort and the switch packet is compiled.
func (f *warmFrame) coldRun(err error) {
	c := f.c
	if err != nil {
		// execOpsK already rolled the attempt back.
		k := f.k
		c.putWarmFrame(f)
		k(err)
		return
	}
	ops := f.txn.Ops
	i := f.next
	for i < len(ops) && c.OnSwitch(ops[i]) {
		f.sw.add(ops[i])
		i++
	}
	if i == len(ops) {
		f.sw.compile(c, f.at.ts)
		c.Env.After(c.Costs.LogAppend, f.intentFn)
		return
	}
	j := i + 1
	for j < len(ops) && !c.OnSwitch(ops[j]) {
		j++
	}
	f.next = j
	c.execOpsK(f.n, f.at, ops[i:j], f.coldRunFn)
}

func (f *warmFrame) intent() {
	c := f.c
	f.sw.intent(c, f.n)
	f.t0 = c.Env.Now()
	parts := f.at.participants(f.n.id)
	f.pending = len(parts) + 1
	f.at.onCommit = f.settleFn
	c.coordOf(f.n).CommitWithSwitchK(parts, f.switchBodyFn, f.committedFn)
}

func (f *warmFrame) switchBody(done func()) {
	f.sdone = done
	f.c.Sw.ExecK(&f.sw.pkt, f.onRespFn)
}

func (f *warmFrame) onResp(resp *txnwire.Response, xerr error) {
	if xerr != nil {
		panic(fmt.Sprintf("engine: switch rejected warm packet: %v", xerr))
	}
	// The multicast carries the results to the coordinator together with
	// the decision, so the record is back-filled here.
	if f.c.Durable {
		f.n.log.Complete(f.sw.rec, resp)
	}
	f.sdone()
}

func (f *warmFrame) committed(ok bool) {
	if !ok {
		// Cannot happen: participants are already prepared (locks held,
		// constraints checked) and always vote yes.
		panic("engine: prepared warm transaction failed to commit")
	}
	f.c.charge(f.n, metrics.SwitchTxn, f.t0)
	f.t0 = f.c.Env.Now()
	f.c.Env.After(f.c.Costs.LogAppend, f.logDoneFn)
}

func (f *warmFrame) logDone() {
	f.n.log.AppendCold(f.at.ts, f.at.writes)
	f.at.writes = f.at.writes[:0]
	f.n.locks.ReleaseAll(f.at.lockTxn(f.n.id))
	f.c.charge(f.n, metrics.TxnEngine, f.t0)
	f.sw.countPasses(f.c, f.n)
	k := f.k
	f.settle()
	k(nil)
}

// settle retires one reference to the attempt (see pending).
func (f *warmFrame) settle() {
	if f.pending--; f.pending == 0 {
		f.c.releaseAttempt(f.at)
		f.c.putWarmFrame(f)
	}
}
