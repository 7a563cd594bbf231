package engine

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/txnwire"
	"repro/internal/wal"
	"repro/internal/workload"
)

// switchTxn is the node-side state of one switch (sub-)transaction: its hot
// operations, the packet they compile to in wire form, and that packet as
// the switch (and the WAL) see it after the wire round trip. Hot and warm
// frames embed one and reuse its buffers across incarnations, so preparing
// a packet allocates nothing at steady state (the retained WAL images under
// Durable excepted).
type switchTxn struct {
	hops   []layout.HotOp
	wire   []byte
	pkt    txnwire.Packet // decoded from wire
	passes int
	rec    wal.Intent // the logged intent, when Durable
}

// reset starts a new (sub-)transaction; add appends its next operation.
func (s *switchTxn) reset() { s.hops = s.hops[:0] }

func (s *switchTxn) add(op workload.Op) {
	s.hops = append(s.hops, layout.HotOp{
		Tuple:     layout.TupleID(op.TupleKey()),
		Op:        op.Kind.WireOp(),
		Operand:   op.Value,
		DependsOn: op.DependsOn,
	})
}

// compile turns the added operations into the switch packet (Section 5.4:
// nodes initialize the processing information) and serializes it.
func (s *switchTxn) compile(c *Context, ts uint64) {
	instrs, _, passes, err := c.compiler.Compile(s.hops, c.Layout)
	if err != nil {
		panic(fmt.Sprintf("engine: hot transaction failed to compile: %v", err))
	}
	left, right := switchLocksFor(c.SwitchCfg, instrs)
	// instrs alias the shared compiler until its next call, so the packet
	// goes into its wire form right away.
	pkt := txnwire.Packet{
		Header: txnwire.Header{
			IsMultipass: passes > 1,
			LockLeft:    left,
			LockRight:   right,
			TxnID:       ts,
		},
		Instrs: instrs,
	}
	if s.wire, err = txnwire.AppendPacket(s.wire[:0], &pkt); err != nil {
		panic(fmt.Sprintf("engine: packet encode: %v", err))
	}
	s.passes = passes
}

// compileOps is reset + add + compile for a transaction whose operations
// are all switch-resident.
func (s *switchTxn) compileOps(c *Context, ops []workload.Op, ts uint64) {
	s.reset()
	for _, op := range ops {
		s.add(op)
	}
	s.compile(c, ts)
}

// intent takes the packet off the wire — the codec round trip is the
// wire-format fidelity check — and logs its intent. The intent must be
// durable BEFORE the packet leaves the node: the switch cannot abort, so
// the logged intent is the commit point (Section 6.1). The caller has
// already paid the LogAppend delay; Durable gates only whether the record
// is retained.
func (s *switchTxn) intent(c *Context, n *Node) {
	if _, err := txnwire.DecodePacketInto(&s.pkt, s.wire); err != nil {
		panic(fmt.Sprintf("engine: packet decode: %v", err))
	}
	if c.Durable {
		s.rec = n.log.AppendSwitchIntent(s.pkt.Header.TxnID, s.pkt.Instrs)
	}
}

// countPasses records the executed switch transaction in the node's
// single-/multi-pass counters.
func (s *switchTxn) countPasses(c *Context, n *Node) {
	if !c.measuring {
		return
	}
	if s.passes > 1 {
		n.counters.MultiPass++
	} else {
		n.counters.SinglePass++
	}
}

// switchLocksFor mirrors the switch's lock mapping so the node can fill
// the packet header.
func switchLocksFor(cfg pisa.Config, instrs []txnwire.Instr) (left, right bool) {
	if !cfg.FineLocks {
		return true, false
	}
	half := cfg.Stages / 2
	for _, in := range instrs {
		if int(in.Stage) < half {
			left = true
		} else {
			right = true
		}
	}
	return left, right
}

// hotFrame is the pooled state machine behind ExecHotK: compile the hot
// operations into one switch packet, log the intent, round-trip through
// the wire codec and the switch, and back-fill the WAL record. Switch
// transactions cannot abort; they count as committed once logged
// (Section 6.1). Continuations are method values cached at construction.
type hotFrame struct {
	c      *Context
	n      *Node
	txn    *workload.Txn
	at     *attempt
	sw     switchTxn
	resp   txnwire.Response // the switch's response, kept for the WAL back-fill
	t0, t1 sim.Time
	k      func(Class, error)

	sdone func() // in-flight switch reply continuation

	compiledFn   func()
	intentFn     func()
	switchBodyFn func(func())
	onRespFn     func(*txnwire.Response, error)
	switchDoneFn func()
}

func (c *Context) getHotFrame() *hotFrame {
	if n := len(c.freeHotFrames); n > 0 {
		f := c.freeHotFrames[n-1]
		c.freeHotFrames = c.freeHotFrames[:n-1]
		return f
	}
	f := &hotFrame{c: c}
	f.compiledFn = f.compiled
	f.intentFn = f.intent
	f.switchBodyFn = f.switchBody
	f.onRespFn = f.onResp
	f.switchDoneFn = f.switchDone
	return f
}

func (c *Context) putHotFrame(f *hotFrame) {
	f.n, f.txn, f.at, f.k = nil, nil, nil, nil
	f.sdone = nil
	c.freeHotFrames = append(c.freeHotFrames, f)
}

// ExecHotK executes a hot transaction entirely on the switch
// (Section 6.1) and invokes k(ClassHot, nil) when the response has landed.
// It is shared switch machinery (the P4DB engine's hot path and the
// recovery drivers use it) rather than a per-strategy body.
func (c *Context) ExecHotK(n *Node, txn *workload.Txn, k func(Class, error)) {
	f := c.getHotFrame()
	f.n, f.txn, f.k = n, txn, k
	f.at = c.newAttempt()
	f.t0 = c.Env.Now()
	c.Env.After(c.Costs.TxnOverhead, f.compiledFn)
}

func (f *hotFrame) compiled() {
	f.sw.compileOps(f.c, f.txn.Ops, f.at.ts)
	f.c.charge(f.n, metrics.TxnEngine, f.t0)
	f.t1 = f.c.Env.Now()
	f.c.Env.After(f.c.Costs.LogAppend, f.intentFn)
}

func (f *hotFrame) intent() {
	f.sw.intent(f.c, f.n)
	f.c.Net.RPCToSwitchK(f.n.id, f.switchBodyFn, f.switchDoneFn)
}

func (f *hotFrame) switchBody(done func()) {
	f.sdone = done
	f.c.Sw.ExecK(&f.sw.pkt, f.onRespFn)
}

func (f *hotFrame) onResp(resp *txnwire.Response, xerr error) {
	if xerr != nil {
		panic(fmt.Sprintf("engine: switch rejected packet: %v", xerr))
	}
	// resp is the switch's until this returns, but the record is only
	// back-filled once the reply has landed (a crash in between leaves the
	// GID-less record of Figure 9): keep what the back-fill needs.
	if f.c.Durable {
		f.resp.GID = resp.GID
		f.resp.Results = append(f.resp.Results[:0], resp.Results...)
	}
	f.sdone()
}

func (f *hotFrame) switchDone() {
	if f.c.Durable {
		f.n.log.Complete(f.sw.rec, &f.resp)
	}
	f.c.charge(f.n, metrics.SwitchTxn, f.t1)
	f.sw.countPasses(f.c, f.n)
	f.c.releaseAttempt(f.at) // hot attempts hold no locks
	k := f.k
	f.c.putHotFrame(f)
	k(ClassHot, nil)
}

// crossTemperatureDeps reports whether any operation depends on an
// operation of the other temperature class.
func crossTemperatureDeps(txn *workload.Txn, hot func(workload.Op) bool) bool {
	for _, op := range txn.Ops {
		if d := op.DependsOn; d >= 0 && d < len(txn.Ops) {
			if hot(op) != hot(txn.Ops[d]) {
				return true
			}
		}
	}
	return false
}
