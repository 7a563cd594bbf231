// Package pisa models a PISA programmable switch (Intel Tofino class) at
// the level of detail P4DB's transaction engine depends on.
//
// The model captures the architectural properties of Sections 2 and 4-5 of
// the paper rather than gate-level behaviour:
//
//   - SRAM register arrays are partitioned over match-action (MAU) stages;
//     a packet may access each register array at most once per pipeline
//     pass, and only in ascending stage order (Table 1 constraints).
//   - One packet is one transaction. Packets in the pipeline are never
//     reordered, so the pipelined execution is equivalent to a serial
//     execution in admission order — this is what makes single-pass switch
//     transactions serializable without any coordination (Section 5.1).
//   - Transactions whose operations cannot be arranged into one legal pass
//     recirculate: they take a pipeline lock at the first stage (the 2-bit
//     lock register of Listing 1), make multiple passes, and release the
//     lock on their final pass (Section 5.2). While a lock instance is
//     held, other transactions needing that instance are recirculated on a
//     waiting port.
//   - Two optimizations from Section 5.3 are switchable: fine-grained
//     locking (the two lock bits guard the lower and upper halves of the
//     pipeline independently) and fast recirculation (a dedicated, shorter
//     recirculation port reserved for lock holders).
//
// Every executed transaction receives a globally-unique id (GID) in serial
// execution order; the host DBMS uses GIDs for durability and recovery of
// the switch state (Section 6.1).
package pisa

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/txnwire"
)

// Config describes the switch resources and timing.
type Config struct {
	// Stages is the number of MAU stages in the pipeline.
	Stages int
	// ArraysPerStage is the number of register arrays per stage.
	ArraysPerStage int
	// SlotsPerArray is the number of tuple slots per register array. The
	// paper's Tofino stores ~820K 8-byte tuples per pipeline; wider tuples
	// shrink this proportionally (Figure 17).
	SlotsPerArray int

	// FineLocks enables the 2-bit pipeline lock of Listing 1: the left bit
	// guards stages [0, Stages/2), the right bit the remainder, so two
	// multi-pass transactions on disjoint halves can run concurrently.
	// With FineLocks off a single (left) lock serializes all multi-pass
	// work.
	FineLocks bool
	// FastRecirc reserves one recirculation port for transactions that
	// already hold a pipeline lock, giving them a shorter queueing delay
	// than waiting transactions (Section 5.3 "Fast Recirculating").
	FastRecirc bool

	// PipelineLatency is the time for one pass through the pipeline
	// (parser, MAU stages, deparser, serialization).
	PipelineLatency sim.Time
	// RecircFast is the queueing delay of the lock-holder recirculation
	// port; RecircWait that of the waiting port.
	RecircFast sim.Time
	RecircWait sim.Time
	// AdmissionGap is the minimum spacing between packet admissions,
	// i.e. the inverse line rate. Tofino-class switches admit on the
	// order of a packet per nanosecond, so this almost never binds.
	AdmissionGap sim.Time
}

// DefaultConfig mirrors the paper's switch: 12 MAU stages with 4 register
// arrays each, sized such that the pipeline holds roughly 820K 8-byte
// tuples.
func DefaultConfig() Config {
	return Config{
		Stages:          12,
		ArraysPerStage:  4,
		SlotsPerArray:   17100, // 12*4*17100 = 820,800 rows
		FineLocks:       true,
		FastRecirc:      true,
		PipelineLatency: 500 * sim.Nanosecond,
		RecircFast:      300 * sim.Nanosecond,
		RecircWait:      1 * sim.Microsecond,
		AdmissionGap:    2 * sim.Nanosecond,
	}
}

// Capacity returns the total number of tuple slots in the pipeline.
func (c Config) Capacity() int { return c.Stages * c.ArraysPerStage * c.SlotsPerArray }

// Stats aggregates switch-side execution counters.
type Stats struct {
	Txns         int64 // transactions executed
	SinglePass   int64 // executed in one pass
	MultiPass    int64 // needed more than one pass
	Recircs      int64 // recirculations of waiting (not-yet-admitted) packets
	HolderPasses int64 // extra passes by lock holders
}

// Switch is one simulated switch pipeline with its register state.
type Switch struct {
	env  *sim.Env
	cfg  Config
	regs []int64 // flattened [stage][array][slot]
	lock LockReg

	nextGID   uint64
	busyUntil sim.Time
	// admitted maps packet TxnID -> assigned GID when admission tracking
	// is on (see TrackAdmissions); nil otherwise.
	admitted map[uint64]uint64
	// midPipeline counts multipass transactions that have been admitted
	// (GID assigned) but not yet applied their final pass. Their effects
	// are only partially in the register file, so a crash snapshot taken
	// while the counter is nonzero is not a replayable state — the fault
	// injector polls MidPipeline and defers the crash until it drains.
	midPipeline int

	// freeFrames recycles the per-packet execution frames of ExecK.
	freeFrames []*execFrame

	// Stats is exported for benchmarks and tests.
	Stats Stats
}

// New creates a switch with zeroed registers.
func New(env *sim.Env, cfg Config) *Switch {
	if cfg.Stages <= 0 || cfg.ArraysPerStage <= 0 || cfg.SlotsPerArray <= 0 {
		panic("pisa: invalid config dimensions")
	}
	return &Switch{
		env:  env,
		cfg:  cfg,
		regs: make([]int64, cfg.Capacity()),
	}
}

// Config returns the switch configuration.
func (sw *Switch) Config() Config { return sw.cfg }

// slot returns the flattened register index, panicking on out-of-range
// coordinates: a bad coordinate means the data layout handed the switch an
// instruction the P4 compiler would have rejected.
func (sw *Switch) slot(stage, array uint8, index uint32) int {
	if int(stage) >= sw.cfg.Stages || int(array) >= sw.cfg.ArraysPerStage || int(index) >= sw.cfg.SlotsPerArray {
		panic(fmt.Sprintf("pisa: register access out of range: stage=%d array=%d index=%d (config %dx%dx%d)",
			stage, array, index, sw.cfg.Stages, sw.cfg.ArraysPerStage, sw.cfg.SlotsPerArray))
	}
	return (int(stage)*sw.cfg.ArraysPerStage+int(array))*sw.cfg.SlotsPerArray + int(index)
}

// ReadRegister returns a register value directly (control-plane access,
// used when offloading tuples and in tests; takes no simulated time).
func (sw *Switch) ReadRegister(stage, array uint8, index uint32) int64 {
	return sw.regs[sw.slot(stage, array, index)]
}

// WriteRegister sets a register value directly (control-plane access used
// by the offload step and by recovery).
func (sw *Switch) WriteRegister(stage, array uint8, index uint32, v int64) {
	sw.regs[sw.slot(stage, array, index)] = v
}

// Snapshot copies the full register state (for recovery tests).
func (sw *Switch) Snapshot() []int64 {
	out := make([]int64, len(sw.regs))
	copy(out, sw.regs)
	return out
}

// Restore overwrites the register state from a snapshot.
func (sw *Switch) Restore(snap []int64) {
	if len(snap) != len(sw.regs) {
		panic("pisa: snapshot size mismatch")
	}
	copy(sw.regs, snap)
}

// Reset zeroes all registers, the pipeline locks and the GID counter,
// modelling a switch power cycle (crash).
func (sw *Switch) Reset() {
	for i := range sw.regs {
		sw.regs[i] = 0
	}
	sw.lock = LockReg{}
	sw.nextGID = 0
}

// NextGID returns the id the next executed transaction will receive.
func (sw *Switch) NextGID() uint64 { return sw.nextGID }

// SetNextGID restores the GID counter after recovery. ApplyTxn replays do
// not advance the counter, so a recovered switch must be told where the
// serial order left off before it admits new traffic.
func (sw *Switch) SetNextGID(gid uint64) { sw.nextGID = gid }

// TrackAdmissions makes the switch record the GID it assigned to every
// admitted packet, keyed by the packet's caller-side TxnID. The simulated
// crash handler uses the map to split a node's GID-less WAL records into
// "executed, response in flight" (replayed into gaps) versus "packet still
// in the fabric, never admitted" (excluded: the lossless simulated fabric
// will deliver and execute them after recovery). Real hardware cannot
// observe this distinction and simply replays every logged intent; the
// tracking exists so the simulation can assert exact state equality.
// Off by default — the map costs one insert per admission.
func (sw *Switch) TrackAdmissions() {
	if sw.admitted == nil {
		sw.admitted = make(map[uint64]uint64)
	}
}

// AdmittedGID reports whether a packet with the given TxnID was admitted
// (and executed) by the switch, and the GID it received. Only meaningful
// after TrackAdmissions.
func (sw *Switch) AdmittedGID(txnID uint64) (uint64, bool) {
	gid, ok := sw.admitted[txnID]
	return gid, ok
}

// MidPipeline returns the number of admitted multipass transactions whose
// final pass has not yet applied. While nonzero, the register file holds
// partial transaction effects and is not a consistent recovery target.
func (sw *Switch) MidPipeline() int { return sw.midPipeline }

// locksFor computes which pipeline lock instances cover the stages a
// transaction touches. With fine-grained locking the left bit guards the
// lower half of the pipeline and the right bit the upper half; without it
// every transaction maps to the single left lock.
func (sw *Switch) locksFor(instrs []txnwire.Instr) (left, right bool) {
	if !sw.cfg.FineLocks {
		return true, false
	}
	half := sw.cfg.Stages / 2
	for _, in := range instrs {
		if int(in.Stage) < half {
			left = true
		} else {
			right = true
		}
	}
	return left, right
}

// ExecK runs one switch transaction: the admission loop, recirculation
// waits and pipeline passes run as scheduled callbacks, and k receives the
// response (or validation error) when the final pass leaves the pipeline.
// The caller is expected to have already paid the node-to-switch network
// latency; ExecK models only in-switch time (admission spacing,
// recirculation queueing, pipeline passes).
//
// ExecK validates the packet against the switch memory model: instructions
// of one pass must touch distinct register arrays in ascending stage
// order. Packets violating IsMultipass=false with a multi-pass instruction
// list are rejected with an error (the node-side classifier must mark them
// correctly, since the locks field differs between the two cases).
//
// Ownership: the switch reads pkt until k is called, so the caller must
// leave it unchanged until then. The *Response handed to k — and its
// Results — belong to a pooled frame of the switch and are valid only
// until k returns; a caller that needs them later copies them out.
// Steady-state execution allocates nothing.
func (sw *Switch) ExecK(pkt *txnwire.Packet, k func(*txnwire.Response, error)) {
	passes := NumPasses(pkt.Instrs)
	multipass := passes > 1
	if multipass && !pkt.Header.IsMultipass {
		k(nil, fmt.Errorf("pisa: packet needs %d passes but is not marked multipass", passes))
		return
	}
	f := sw.getFrame()
	f.pkt, f.k = pkt, k
	f.multipass = multipass
	f.needL, f.needR = sw.locksFor(pkt.Instrs)
	f.recircs = int(pkt.Header.NbRecircs)
	f.admit()
}

// Exec is the process form of ExecK for straight-line tests: it parks the
// calling process until the response arrives and returns a copy of it.
func (sw *Switch) Exec(p *sim.Proc, pkt *txnwire.Packet) (*txnwire.Response, error) {
	var (
		resp         *txnwire.Response
		err          error
		done, parked bool
	)
	sw.ExecK(pkt, func(r *txnwire.Response, e error) {
		if r != nil {
			c := *r
			c.Results = append([]txnwire.Result(nil), r.Results...)
			resp = &c
		}
		err = e
		if parked {
			sw.env.Resume(0, p)
		} else {
			done = true
		}
	})
	if !done {
		parked = true
		p.Park()
	}
	return resp, err
}

// execFrame is the state of one packet inside the switch, from its first
// admission attempt until its response has been handed over. Frames are
// free-listed on the Switch with their continuations cached as method
// values, and each owns the Response (and Results buffer) it reports.
type execFrame struct {
	sw           *Switch
	pkt          *txnwire.Packet
	k            func(*txnwire.Response, error)
	multipass    bool
	needL, needR bool
	recircs      int
	next         int // first instruction of the next pass
	// ctx is the packet metadata carried across stages and recirculations.
	ctx  pktCtx
	resp txnwire.Response

	admitFn, passFn, doneFn func()
}

func (sw *Switch) getFrame() *execFrame {
	if n := len(sw.freeFrames); n > 0 {
		f := sw.freeFrames[n-1]
		sw.freeFrames = sw.freeFrames[:n-1]
		return f
	}
	f := &execFrame{sw: sw}
	f.admitFn, f.passFn, f.doneFn = f.admit, f.pass, f.done
	return f
}

// admit is one admission attempt. Single-pass transactions require their
// lock instances to be FREE; multi-pass transactions ACQUIRE them
// atomically (Listing 1). Either way a failure recirculates the packet on
// the waiting port.
func (f *execFrame) admit() {
	sw, env := f.sw, f.sw.env
	// Admission spacing (the inverse line rate): several packets can wake at
	// the same instant; only one claims the slot, the rest re-queue behind
	// the updated horizon, one event per re-queue.
	if env.Now() < sw.busyUntil {
		env.After(sw.busyUntil-env.Now(), f.admitFn)
		return
	}
	sw.busyUntil = env.Now() + sw.cfg.AdmissionGap
	var ok bool
	if f.multipass {
		ok = sw.lock.TryLock(f.needL, f.needR)
	} else {
		ok = sw.lock.Free(f.needL, f.needR)
	}
	if !ok {
		f.recircs++
		sw.Stats.Recircs++
		// The paper's flow control prioritizes long-waiting packets via
		// nb_recircs so they cannot starve; the model approximates the
		// priority by shortening the waiting-port delay once a packet has
		// recirculated many times. (The wire counter saturates at 255;
		// the internal count keeps growing.)
		d := sw.cfg.RecircWait
		if f.recircs > 64 {
			d = sw.cfg.RecircWait / 4
		}
		env.After(d, f.admitFn)
		return
	}

	f.resp.TxnID = f.pkt.Header.TxnID
	f.resp.GID = sw.nextGID
	sw.nextGID++
	if sw.admitted != nil {
		sw.admitted[f.resp.TxnID] = f.resp.GID
	}
	sw.Stats.Txns++
	if f.multipass {
		sw.Stats.MultiPass++
		sw.midPipeline++
	} else {
		sw.Stats.SinglePass++
	}
	f.resp.Results = f.resp.Results[:0]
	f.ctx = newPktCtx()
	f.next = 0
	f.pass()
}

// pass applies one pipeline pass: the instructions from next up to the
// following pass boundary.
func (f *execFrame) pass() {
	sw := f.sw
	instrs := f.pkt.Instrs
	end := passEnd(instrs, f.next)
	final := end == len(instrs)
	if f.multipass && final {
		// The lock is released when the final pass is admitted
		// (Figure 7: "Done? -> Unlock"), letting waiting transactions in
		// behind it; they cannot overtake.
		sw.lock.Unlock(f.needL, f.needR)
		sw.midPipeline--
	}
	for _, in := range instrs[f.next:end] {
		f.resp.Results = append(f.resp.Results, sw.apply(in, &f.ctx))
	}
	f.next = end
	if !final {
		d := sw.cfg.RecircWait
		if sw.cfg.FastRecirc {
			d = sw.cfg.RecircFast
		}
		sw.Stats.HolderPasses++
		sw.env.After(d, f.passFn)
		return
	}
	sw.env.After(sw.cfg.PipelineLatency, f.doneFn)
}

// done hands the response over and recycles the frame once k has returned.
func (f *execFrame) done() {
	f.resp.Recircs = clampU8(f.recircs)
	k := f.k
	k(&f.resp, nil)
	f.pkt, f.k = nil, nil
	f.sw.freeFrames = append(f.sw.freeFrames, f)
}

// pktCtx is the per-packet metadata a transaction carries through the
// pipeline (and across recirculations): the accumulator that chains
// read-dependent writes and the ok-flag that chains constrained writes.
type pktCtx struct {
	acc int64
	ok  bool
}

func newPktCtx() pktCtx { return pktCtx{ok: true} }

// apply executes one instruction against the register state. State
// mutations are instantaneous at the current virtual time; the pipeline
// latency is charged once per pass, which preserves the admission-order
// serial semantics while still modelling packet-level pipelining (many
// packets can be "in flight" during each other's PipelineLatency).
func (sw *Switch) apply(in txnwire.Instr, ctx *pktCtx) txnwire.Result {
	v := &sw.regs[sw.slot(in.Stage, in.Array, in.Index)]
	switch in.Op {
	case txnwire.OpRead:
		return txnwire.Result{Value: *v, OK: true}
	case txnwire.OpWrite:
		*v = in.Operand
		return txnwire.Result{Value: *v, OK: true}
	case txnwire.OpAdd:
		*v += in.Operand
		return txnwire.Result{Value: *v, OK: true}
	case txnwire.OpCondAddGE0:
		if *v+in.Operand >= 0 {
			*v += in.Operand
			return txnwire.Result{Value: *v, OK: true}
		}
		ctx.ok = false
		return txnwire.Result{Value: *v, OK: false}
	case txnwire.OpMax:
		if in.Operand > *v {
			*v = in.Operand
		}
		return txnwire.Result{Value: *v, OK: true}
	case txnwire.OpReadClear:
		old := *v
		ctx.acc += old
		*v = 0
		return txnwire.Result{Value: old, OK: true}
	case txnwire.OpAddAcc:
		*v += ctx.acc + in.Operand
		return txnwire.Result{Value: *v, OK: true}
	case txnwire.OpAddIfOK:
		if ctx.ok {
			*v += in.Operand
			return txnwire.Result{Value: *v, OK: true}
		}
		return txnwire.Result{Value: *v, OK: false}
	default:
		panic(fmt.Sprintf("pisa: unknown opcode %v", in.Op))
	}
}

// ApplyTxn replays one whole switch transaction through the control plane
// with a fresh packet context, used by recovery to re-execute logged
// transactions. It shares the exact data-plane semantics of Exec but takes
// no simulated time.
func (sw *Switch) ApplyTxn(instrs []txnwire.Instr) []txnwire.Result {
	ctx := newPktCtx()
	results := make([]txnwire.Result, len(instrs))
	for i, in := range instrs {
		results[i] = sw.apply(in, &ctx)
	}
	return results
}

func clampU8(v int) uint8 {
	if v > 255 {
		return 255
	}
	return uint8(v)
}
