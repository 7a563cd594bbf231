package engine

import (
	"repro/internal/hotset"
	"repro/internal/layout"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/twopc"
	"repro/internal/wal"
	"repro/internal/workload"
)

// CostModel holds the per-operation CPU costs of a database node on the
// virtual timeline. They are small next to network latencies, as on the
// paper's DPDK testbed.
type CostModel struct {
	// LocalAccess is one tuple read/write in local memory.
	LocalAccess sim.Time
	// LockOp is one lock-table operation (acquire attempt or release).
	LockOp sim.Time
	// LogAppend is one write-ahead-log append.
	LogAppend sim.Time
	// TxnOverhead is the fixed begin/commit bookkeeping per transaction.
	TxnOverhead sim.Time
	// AbortBackoff is the mean randomized backoff before a retry.
	AbortBackoff sim.Time
}

// DefaultCosts returns the calibrated node cost model.
func DefaultCosts() CostModel {
	return CostModel{
		LocalAccess:  200 * sim.Nanosecond,
		LockOp:       100 * sim.Nanosecond,
		LogAppend:    300 * sim.Nanosecond,
		TxnOverhead:  1500 * sim.Nanosecond,
		AbortBackoff: 5 * sim.Microsecond,
	}
}

// Node is one database server: its store partition, lock table, WAL,
// scheme-private CC bookkeeping and measurement state.
type Node struct {
	id    netsim.NodeID
	store *store.Store
	locks *lock.Table
	log   *wal.Log
	cc    NodeState

	counters  metrics.Counters
	breakdown metrics.Breakdown
	latency   metrics.LatencyHist
}

// NewNode builds a node with an empty store, a lock table under the given
// policy, a fresh write-ahead log and the CC bookkeeping of the given
// scheme.
func NewNode(id netsim.NodeID, env *sim.Env, pol lock.Policy, sch Scheme) *Node {
	l := wal.NewLog(int(id))
	// Commit records carry the virtual clock as their LSN so recovery can
	// merge cold records across node logs in decision order.
	l.SetClock(func() uint64 { return uint64(env.Now()) })
	return &Node{
		id:    id,
		store: store.New(),
		locks: lock.NewTable(env, pol),
		log:   l,
		cc:    sch.NewNodeState(),
	}
}

// ID returns the node id.
func (n *Node) ID() netsim.NodeID { return n.id }

// Store exposes the node's storage (examples and tests).
func (n *Node) Store() *store.Store { return n.store }

// Log exposes the node's write-ahead log (recovery).
func (n *Node) Log() *wal.Log { return n.log }

// Locks exposes the node's lock table (crash-recovery verification probes
// it for rows legitimately mid-update at the crash instant).
func (n *Node) Locks() *lock.Table { return n.locks }

// Counters exposes the node's commit/abort counters (result merging).
func (n *Node) Counters() *metrics.Counters { return &n.counters }

// Breakdown exposes the node's latency breakdown (result merging).
func (n *Node) Breakdown() *metrics.Breakdown { return &n.breakdown }

// Latency exposes the node's latency histogram (result merging).
func (n *Node) Latency() *metrics.LatencyHist { return &n.latency }

// OCCVersionsAdvanced counts rows whose OCC version moved past zero —
// i.e. rows that received at least one committed optimistic write
// (diagnostics and tests). Zero when the node runs another scheme.
func (n *Node) OCCVersionsAdvanced() int {
	s, ok := n.cc.(*occState)
	if !ok {
		return 0
	}
	bumped := 0
	for _, v := range s.versions {
		if v > 0 {
			bumped++
		}
	}
	return bumped
}

// OCCPinsHeld counts rows currently pinned by validating transactions
// (diagnostics and tests). Zero when the node runs another scheme.
func (n *Node) OCCPinsHeld() int {
	if s, ok := n.cc.(*occState); ok {
		return len(s.pins)
	}
	return 0
}

// Context is the shared substrate every engine composes: the simulated
// cluster hardware (nodes, network, switch), the workload, the hot-set
// artifacts of the offline preparation step, and the bookkeeping all
// strategies share (timestamps, measurement gating). internal/core builds
// one Context per cluster and passes it to every Engine call.
type Context struct {
	Env   *sim.Env
	Net   *netsim.Network
	Sw    *pisa.Switch
	Gen   workload.Generator
	Nodes []*Node

	Costs CostModel
	// Scheme is the resolved host-DBMS concurrency-control family the
	// cluster runs under (see ResolveScheme); engines route their warm
	// and cold paths through it.
	Scheme    Scheme
	Policy    lock.Policy
	SwitchCfg pisa.Config

	// SchemeData is scheme-owned cluster-wide state installed by
	// Scheme.Init (the MVCC snapshot tracker); nil for stateless schemes.
	SchemeData interface{}

	// EngineData is engine-owned cluster-wide state installed by the
	// engine's Prepare (the calvin sequencer); nil for stateless engines.
	EngineData interface{}

	// BatchSize is the deterministic-sequencer batch bound threaded from
	// core.Config.BatchSize; 0 selects the engine's default. Only engines
	// that order transactions before execution (calvin) read it.
	BatchSize int

	// Hot-set artifacts of the offline preparation step (Figure 3).
	Layout   *layout.Layout
	HotIdx   *hotset.Index
	HotLabel map[store.GlobalKey]bool

	// UseSwitch is set by the P4DB engine's Prepare once the hot tuples
	// are offloaded into the switch registers; only then does OnSwitch
	// route operations to the data plane.
	UseSwitch bool
	// Durable turns on write-ahead logging (Section 6.1): switch intents
	// are retained before the packet is sent and back-filled with the
	// response's GID, and cold commit paths retain their redo records at
	// the 2PC decision point. Every commit path already waits out its
	// LogAppend delays unconditionally — Durable gates only the retention
	// of record data — so a run's event schedule (and its golden digest)
	// is bit-identical whether logging is on or off, and the off path
	// allocates nothing for records it will never keep.
	Durable bool
	// LMLocks is the in-switch central lock manager of the LM-Switch
	// baseline, reachable at half an RTT (set by its Prepare).
	LMLocks *lock.Table

	nextTS    uint64
	measuring bool

	// Free lists for the hot-path state machines (attempt.go, switch.go):
	// steady-state execution recycles attempts, lock contexts and
	// continuation frames instead of allocating. A single worker drives
	// each simulation shard, so the pools need no synchronization.
	freeAttempts   []*attempt
	freeOpsFrames  []*opsFrame
	freeColdFrames []*coldFrame
	freeHotFrames  []*hotFrame
	freeWarmFrames []*warmFrame
	freeSubmits    []*submitSM

	// compiler is the one hot-transaction compiler every frame shares:
	// compilation is synchronous, and switchTxn.compile serializes the
	// result before the next call can overwrite it.
	compiler layout.Compiler

	// freeClassAdapters recycles the k(error) -> k(Class, error) bridges
	// (submit.go) used by engines whose Execute is a straight scheme call.
	freeClassAdapters []*classAdapter

	// Serving-mode submission accounting (submit.go): kept here rather
	// than in the caller so Submit's completion path stays allocation-free
	// (no per-call wrapper closure around the caller's callback).
	submitsInflight int
	submitsDone     int64

	// coords caches one 2PC coordinator per node; the per-commit Stats of
	// the old throwaway coordinators were never read, so sharing is safe.
	coords []*twopc.Coordinator

	// ad is the online adaptive layout controller (adaptive.go), nil for
	// static-layout clusters. Every hot-path touchpoint is a single nil
	// check, so the static schedule — and its golden digest — is
	// untouched.
	ad *adaptiveState
}

// coordOf returns the cached 2PC coordinator for node n.
func (c *Context) coordOf(n *Node) *twopc.Coordinator {
	if c.coords == nil {
		c.coords = make([]*twopc.Coordinator, len(c.Nodes))
	}
	if co := c.coords[n.id]; co != nil {
		return co
	}
	co := twopc.NewCoordinator(c.Net, n.id)
	c.coords[n.id] = co
	return co
}

// issueTS hands out the next cluster-unique timestamp. The paper assigns
// transaction timestamps at start; MVCC additionally draws commit stamps
// from the same clock so snapshot and commit order share one timeline.
func (c *Context) issueTS() uint64 {
	c.nextTS++
	return c.nextTS
}

// SetMeasuring gates statistics collection: only virtual time spent inside
// the measurement window is charged to counters and histograms.
func (c *Context) SetMeasuring(on bool) { c.measuring = on }

// OnSwitch reports whether an operation's tuple lives on the switch.
func (c *Context) OnSwitch(op workload.Op) bool {
	return c.UseSwitch && c.HotIdx.OnSwitch(op.TupleKey())
}

// IsHotTuple reports whether the tuple was classified hot by detection
// (independent of whether it fits on the switch); baselines use this for
// LM-Switch lock placement and Chiller's inner region.
func (c *Context) IsHotTuple(op workload.Op) bool {
	return c.HotLabel[op.TupleKey()]
}

// TxnOnHotSet reports whether every operation touches detected-hot tuples.
func (c *Context) TxnOnHotSet(txn *workload.Txn) bool {
	for _, op := range txn.Ops {
		if !c.IsHotTuple(op) {
			return false
		}
	}
	return true
}

// Classify assigns the P4DB transaction class (Section 3.2): hot = all
// tuples on the switch, cold = none, warm = mixed.
func (c *Context) Classify(txn *workload.Txn) Class {
	hot, cold := 0, 0
	for _, op := range txn.Ops {
		if c.OnSwitch(op) {
			hot++
		} else {
			cold++
		}
	}
	switch {
	case cold == 0 && hot > 0:
		return ClassHot
	case hot == 0:
		return ClassCold
	default:
		return ClassWarm
	}
}

// charge attributes elapsed virtual time to a breakdown component. It runs
// on every operation of every transaction, so it reads the clock straight
// from the environment instead of detouring through the calling process.
func (c *Context) charge(n *Node, comp metrics.Component, since sim.Time) {
	if c.measuring {
		n.breakdown.Add(comp, c.Env.Now()-since)
	}
}

// workerSM is one closed-loop worker as a continuation-driven state
// machine: generate, execute with retries, account, chain to the next
// transaction — all without ever parking a goroutine. A committed
// transaction chains to its successor inline (exactly like the retired
// process loop continued inline after Execute returned), which keeps the
// event-sequence draws identical to the process formulation; the stack
// stays bounded because every engine path begins by scheduling its
// transaction-overhead wait. The worker owns its one Txn and refills it
// for every draw: an engine is done with a transaction when it calls k.
type workerSM struct {
	c        *Context
	eng      Engine
	n        *Node
	rng      *sim.RNG
	txn      workload.Txn
	start    sim.Time
	attempts int

	beginFn func()
	retryFn func()
	doneFn  func(Class, error)
}

// StartWorker launches one closed-loop worker. It replaces the former
// RunWorker process: the initial After(0, ·) draws the same event the
// worker's Spawn used to, so seeded schedules carry over unchanged. The
// worker runs until the environment stops dispatching events.
func (c *Context) StartWorker(eng Engine, n *Node, rng *sim.RNG) {
	sm := &workerSM{c: c, eng: eng, n: n, rng: rng}
	sm.beginFn = sm.begin
	sm.retryFn = sm.retry
	sm.doneFn = sm.done
	c.Env.After(0, sm.beginFn)
}

// begin starts the next transaction of the closed loop.
func (sm *workerSM) begin() {
	sm.c.Gen.NextInto(sm.rng, sm.n.id, &sm.txn)
	sm.start = sm.c.Env.Now()
	sm.attempts = 0
	sm.retry()
}

// retry executes the current transaction: its first attempt, and again
// after each backoff.
func (sm *workerSM) retry() {
	if ad := sm.c.ad; ad != nil {
		// Retries re-record: the window measures attempted traffic, so a
		// contended tuple's weight grows with the aborts it causes and
		// re-detection promotes the tuples doing damage first.
		ad.record(sm.n, &sm.txn)
		ad.exec(sm.eng, sm.n, &sm.txn, sm.doneFn)
		return
	}
	sm.eng.Execute(sm.c, sm.n, &sm.txn, sm.doneFn)
}

// done receives the outcome of one attempt.
func (sm *workerSM) done(cls Class, err error) {
	c := sm.c
	n := sm.n
	if err != nil {
		if c.measuring {
			n.counters.Aborts++
		}
		// Randomized backoff that grows with consecutive failures,
		// bounded at 8x — standard NO_WAIT retry damping.
		if sm.attempts < 8 {
			sm.attempts++
		}
		backoff := c.Costs.AbortBackoff/2 + sim.Time(sm.rng.Int63n(int64(c.Costs.AbortBackoff)))
		c.Env.After(backoff*sim.Time(sm.attempts), sm.retryFn)
		return
	}
	c.accountCommit(n, cls, &sm.txn, sm.start)
	sm.begin()
}

// accountCommit records one committed transaction: latency, breakdown and
// the per-class commit counter. Shared by the closed-loop worker and the
// serving-mode submit path so both report identically.
func (c *Context) accountCommit(n *Node, cls Class, txn *workload.Txn, start sim.Time) {
	if !c.measuring {
		return
	}
	n.latency.Record(c.Env.Now() - start)
	n.breakdown.AddTxn()
	switch cls {
	case ClassHot:
		n.counters.CommittedHot++
	case ClassWarm:
		n.counters.CommittedWarm++
	default:
		// In the baselines a transaction on hot tuples still
		// counts as a hot transaction for the Figure 12
		// breakdown, even though it executes on the nodes.
		if c.TxnOnHotSet(txn) {
			n.counters.CommittedHot++
		} else {
			n.counters.CommittedCold++
		}
	}
}

// runK drives a callback state machine to completion from a process:
// start launches the machine with a completion callback, and the process
// parks until it fires. It is the bridge tests and examples use to call
// the continuation-form engine paths from straight-line code.
func runK(p *sim.Proc, start func(fin func())) {
	done, parked := false, false
	start(func() {
		if parked {
			p.Env().Resume(0, p)
		} else {
			done = true
		}
	})
	if !done {
		parked = true
		p.Park()
	}
}

// ExecuteSync drives one Execute attempt to completion from a process —
// the process-form face of the callback engine API (tests, examples,
// recovery tooling).
func (c *Context) ExecuteSync(p *sim.Proc, eng Engine, n *Node, txn *workload.Txn) (Class, error) {
	var (
		cls Class
		err error
	)
	runK(p, func(fin func()) {
		eng.Execute(c, n, txn, func(cl Class, e error) {
			cls, err = cl, e
			fin()
		})
	})
	return cls, err
}
