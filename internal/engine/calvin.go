package engine

import (
	"fmt"
	"sort"

	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/workload"
)

func init() { Register(calvinEngine{}) }

// This file implements a Calvin-style deterministic execution engine
// (Thomson et al., SIGMOD'12) — the classic contrast to both the paper's
// switch offload and the validating (OCC/MVCC) families. The design point
// it opens: agree on a global transaction order FIRST, then make every
// node execute that order faithfully, and distributed commit needs no
// agreement protocol at all.
//
//   - Sequencing. Workers submit transactions to a cluster-wide sequencer
//     that collects them into epoch batches (closed when Config.BatchSize
//     transactions accumulated or the epoch timer fires) and fixes each
//     batch's order with a seeded-RNG shuffle — an arbitrary but
//     reproducible global order, the stand-in for Calvin's replicated
//     Paxos input log. Equal seeds replay the same order.
//   - Deterministic locking. A transaction's read/write set must be
//     declared before it executes (workload.Txn.LockSet); generators that
//     cannot promise exact sets (TPC-C, SetDeclarer) get a reconnaissance
//     pass first — Calvin's optimistic lock location prediction. All locks
//     are then acquired in ascending global key order with waiting grants
//     (lock.Table.AcquireWaitK): ordered acquisition keeps every waits-for
//     chain acyclic, so there is no deadlock detection, no waits-for
//     graph, and — unlike NO_WAIT/WAIT_DIE — no aborts, ever.
//   - Single-round commit. Execution applies in place (nothing can force
//     a rollback once the locks are held), and commit is one log append
//     plus one-way apply/release messages to the remote participants.
//     Classic 2PC's prepare/vote round exists to discover whether every
//     participant CAN commit; determinism replaces that agreement — every
//     node independently reaches the same decision — so the vote round
//     (and its blocking window) disappears.
//
// The engine pins 2PL the way the other inherently lock-based baselines
// do (SchemeForcer): deterministic locking is defined in terms of lock
// hold order, so the configured validating schemes do not apply.

// calvinDefaultBatch is the sequencer's epoch batch bound when
// core.Config.BatchSize is zero.
const calvinDefaultBatch = 16

// calvinEpoch bounds how long the sequencer holds an underfull batch: an
// epoch timer dispatches whatever is pending, so a closed batch never
// waits on future arrivals (Calvin's 10 ms epochs, scaled to the
// simulation's µs latencies).
const calvinEpoch = 10 * sim.Microsecond

type calvinEngine struct{}

func (calvinEngine) Name() string  { return "calvin" }
func (calvinEngine) Label() string { return "Calvin" }

// ForcedScheme pins 2PL: deterministic execution is defined over lock
// acquisition order, so the configured validating schemes do not apply.
func (calvinEngine) ForcedScheme() string { return Scheme2PL }

// Prepare installs the cluster-wide sequencer. Node 0 hosts it — the
// stand-in for Calvin's replicated sequencing layer; submissions and
// dispatch grants pay the fabric latency to and from that node.
func (calvinEngine) Prepare(ctx *Context) error {
	batch := ctx.BatchSize
	if batch < 0 {
		return fmt.Errorf("calvin: negative batch size %d", batch)
	}
	if batch == 0 {
		batch = calvinDefaultBatch
	}
	rng := ctx.Env.Rand().Fork(0xCA1711)
	ctx.EngineData = &calvinSequencer{
		node:  0,
		batch: batch,
		rng:   rng,
		rng0:  *rng, // standby baseline: the freshly forked state, pre-epoch
	}
	return nil
}

func (calvinEngine) Execute(ctx *Context, n *Node, txn *workload.Txn, k func(Class, error)) {
	ctx.execCalvinK(n, txn, func() { k(ClassCold, nil) })
}

// calvinSequencerOf returns the cluster's sequencer, failing fast when the
// cluster was prepared for another engine (an assembly bug).
func calvinSequencerOf(c *Context) *calvinSequencer {
	s, ok := c.EngineData.(*calvinSequencer)
	if !ok {
		panic("engine: calvin execution on a cluster prepared for another engine")
	}
	return s
}

// calvinSubmission is one transaction parked in the sequencer: the signal
// that releases its worker and the node the grant travels back to.
type calvinSubmission struct {
	turn *sim.Signal
	node netsim.NodeID
}

// calvinSequencer is the cluster-wide epoch sequencer. All state mutation
// happens in scheduler-callback context (one event at a time), so it needs
// no locks and stays deterministic for a seed.
type calvinSequencer struct {
	node    netsim.NodeID // hosting node; submissions travel here
	batch   int           // dispatch when this many transactions pend
	rng     *sim.RNG      // per-batch order; forked from the cluster seed
	pending []calvinSubmission
	gen     uint64 // dispatch generation; invalidates the epoch's timer

	// rng0 is the shuffle RNG's state as forked at Prepare, before any
	// epoch was dispatched. A standby sequencer reconstructs the live
	// shuffle state by replaying Perm draws from this baseline — Calvin's
	// replicated input log reduced to its essence: the batch sizes.
	rng0 sim.RNG
	// epochs records the size of every dispatched batch when the cluster
	// is durable; it is the epoch log the standby replays at failover.
	epochs []int
}

// enqueue runs at the sequencer node (inside a delivery callback): park
// the submission and dispatch when the batch bound is reached. Each
// epoch's FIRST submission arms that epoch's timer, carrying the current
// dispatch generation — so a batch that fills and dispatches by count
// invalidates its timer, and the next epoch starts its full calvinEpoch
// window from its own first arrival (a leftover timer must not flush a
// successor batch early).
func (s *calvinSequencer) enqueue(c *Context, sub calvinSubmission) {
	s.pending = append(s.pending, sub)
	if len(s.pending) >= s.batch {
		s.dispatch(c)
		return
	}
	if len(s.pending) == 1 {
		gen := s.gen
		c.Env.After(calvinEpoch, func() {
			if s.gen == gen && len(s.pending) > 0 {
				s.dispatch(c)
			}
		})
	}
}

// dispatch closes the current epoch: fix the batch's global order with a
// seeded shuffle and release every worker in that order. Grants are
// delivered like any other message, so workers co-located with the
// sequencer learn their turn a fabric latency earlier than remote ones —
// the epoch order decides start order among same-node submitters, while
// correctness never depends on start order at all: isolation comes from
// the ordered lock acquisition, and the seeded shuffle plus deterministic
// delivery make the whole schedule reproducible per seed.
func (s *calvinSequencer) dispatch(c *Context) {
	batch := s.pending
	s.pending = nil
	s.gen++
	if c.Durable {
		s.epochs = append(s.epochs, len(batch))
	}
	for _, i := range s.rng.Perm(len(batch)) {
		sub := batch[i]
		if sub.node == s.node {
			sub.turn.Fire()
			continue
		}
		c.Net.Send(s.node, sub.node, func() { sub.turn.Fire() })
	}
}

// execCalvinK runs one transaction to commit as a continuation chain. It
// never reports an abort: conflicts resolve by waiting in pre-declared
// lock order, and the commit round has no vote to lose.
func (c *Context) execCalvinK(n *Node, txn *workload.Txn, k func()) {
	seq := calvinSequencerOf(c)
	t0 := c.Env.Now()
	c.Env.After(c.Costs.TxnOverhead, func() {
		c.charge(n, metrics.TxnEngine, t0)

		refs := txn.LockSet()
		sequenced := func() {
			// Sequencing: submit, then wait until the epoch batch this
			// transaction lands in is ordered and our turn is granted. A
			// co-located sequencer may grant the turn inline, in which
			// case Subscribe continues immediately.
			t1 := c.Env.Now()
			turn := c.Env.NewSignal()
			sub := calvinSubmission{turn: turn, node: n.id}
			if n.id == seq.node {
				seq.enqueue(c, sub)
			} else {
				c.Net.Send(n.id, seq.node, func() { seq.enqueue(c, sub) })
			}
			turn.Subscribe(func() {
				c.charge(n, metrics.TxnEngine, t1)
				c.calvinLockedExecK(n, txn, refs, k)
			})
		}
		if d, ok := c.Gen.(workload.SetDeclarer); !ok || !d.DeclaresKeySets() {
			c.calvinReconK(n, refs, sequenced)
		} else {
			sequenced()
		}
	})
}

// calvinLockedExecK is the post-sequencing half of a Calvin transaction:
// deterministic locking, in-place execution, single-round commit.
func (c *Context) calvinLockedExecK(n *Node, txn *workload.Txn, refs []workload.LockRef, k func()) {
	// Deterministic locking: the whole declared set, ascending global key
	// order, waiting grants. Consecutive same-node runs share one round
	// trip; acquisition within the trip stays in key order, so the global
	// order is preserved exactly.
	ts := c.issueTS()
	locks := make(map[netsim.NodeID]*lock.Txn, 2)
	lockTxn := func(id netsim.NodeID) *lock.Txn {
		t, ok := locks[id]
		if !ok {
			t = lock.NewTxn(ts)
			locks[id] = t
		}
		return t
	}

	// Execution: every lock is held, so operations apply in place with no
	// undo images — nothing can force a rollback anymore.
	execPhase := func() {
		exec := workload.NewExecutor()
		var writes []wal.ColdWrite
		apply := func(id netsim.NodeID, op workload.Op) {
			tb := c.Nodes[id].store.Table(op.Table)
			exec.Apply(tb, op)
			if op.Kind.IsWrite() && c.Durable {
				writes = append(writes, wal.ColdWrite{
					Table: op.Table, Key: op.Key, Field: op.Field,
					Value: tb.Get(op.Key, op.Field),
				})
			}
		}
		commit := func() {
			// Single-round commit: no prepare, no votes — every
			// participant is certain to commit, so the coordinator logs
			// and releases locally and the remote participants release on
			// a one-way message.
			t3 := c.Env.Now()
			c.Env.After(c.Costs.LogAppend, func() {
				n.log.AppendCold(ts, writes)
				held := make([]netsim.NodeID, 0, len(locks))
				for id := range locks {
					held = append(held, id)
				}
				// Release in node order: map iteration order would reorder
				// the release messages run to run and break seeded
				// reproducibility.
				sort.Slice(held, func(i, j int) bool { return held[i] < held[j] })
				for _, id := range held {
					if id == n.id {
						n.locks.ReleaseAllOrdered(locks[id])
						continue
					}
					id, lt := id, locks[id]
					c.Net.Send(n.id, id, func() { c.Nodes[id].locks.ReleaseAllOrdered(lt) })
				}
				c.charge(n, metrics.TxnEngine, t3)
				k()
			})
		}
		oi := 0
		var t2 sim.Time
		var opStep func()
		opStep = func() {
			if oi >= len(txn.Ops) {
				commit()
				return
			}
			op := txn.Ops[oi]
			t2 = c.Env.Now()
			if op.Home == n.id {
				c.Env.After(c.Costs.LocalAccess, func() {
					apply(n.id, op)
					c.charge(n, metrics.LocalAccess, t2)
					oi++
					opStep()
				})
				return
			}
			c.Net.RPCK(n.id, op.Home, func(done func()) {
				c.Env.After(c.Costs.LocalAccess, func() {
					apply(op.Home, op)
					done()
				})
			}, func() {
				c.charge(n, metrics.RemoteAccess, t2)
				oi++
				opStep()
			})
		}
		opStep()
	}

	var lockRuns func(i int)
	lockRuns = func(i int) {
		if i >= len(refs) {
			execPhase()
			return
		}
		home := refs[i].Home
		j := i
		for j < len(refs) && refs[j].Home == home {
			j++
		}
		run := refs[i:j]
		tl := c.Env.Now()
		if home == n.id {
			ri := 0
			var next func()
			next = func() {
				if ri >= len(run) {
					c.charge(n, metrics.LockAcquisition, tl)
					lockRuns(j)
					return
				}
				ref := run[ri]
				ri++
				c.Env.After(c.Costs.LockOp, func() {
					n.locks.AcquireWaitK(lockTxn(home), lock.Key(ref.Key), calvinMode(ref), next)
				})
			}
			next()
			return
		}
		c.Net.RPCK(n.id, home, func(done func()) {
			rn := c.Nodes[home]
			ri := 0
			var next func()
			next = func() {
				if ri >= len(run) {
					done()
					return
				}
				ref := run[ri]
				ri++
				c.Env.After(c.Costs.LockOp, func() {
					rn.locks.AcquireWaitK(lockTxn(home), lock.Key(ref.Key), calvinMode(ref), next)
				})
			}
			next()
		}, func() {
			c.charge(n, metrics.RemoteAccess, tl)
			lockRuns(j)
		})
	}
	lockRuns(0)
}

// FailoverCalvinSequencer replaces the crashed sequencer with a standby
// and returns the number of epochs the standby replayed. The standby
// starts from the shuffle RNG's forked baseline state and replays one
// Perm draw per logged epoch — reconstructing the exact generator state
// the live sequencer died with, which it verifies against the live state
// (the simulation keeps it around precisely to make this check possible;
// a real standby would have nothing to compare against and simply trust
// the log). The sequencer struct is adopted in place, the simulation's
// "virtual IP takeover": parked submissions survive, and an in-flight
// epoch timer's generation guard remains valid. The cluster must be
// durable — without the epoch log there is nothing to replay.
func FailoverCalvinSequencer(c *Context) int {
	if !c.Durable {
		panic("engine: calvin sequencer failover without Durable: no epoch log to replay")
	}
	s := calvinSequencerOf(c)
	standby := s.rng0
	for _, sz := range s.epochs {
		standby.Perm(sz)
	}
	if standby != *s.rng {
		panic("engine: calvin standby diverges from live sequencer after epoch replay")
	}
	if uint64(len(s.epochs)) != s.gen {
		panic(fmt.Sprintf("engine: calvin epoch log has %d entries but %d epochs dispatched", len(s.epochs), s.gen))
	}
	// Adoption: install the replayed state (bit-identical to the live one,
	// as just verified) and continue sequencing from it.
	*s.rng = standby
	return len(s.epochs)
}

// calvinMode maps a declared lock reference to its table mode.
func calvinMode(ref workload.LockRef) lock.Mode {
	if ref.Write {
		return lock.Exclusive
	}
	return lock.Shared
}

// calvinReconK models the reconnaissance pass for workloads whose
// read/write sets depend on data (TPC-C): a lock-free read-only pass over
// the transaction's partitions discovers the set before sequencing. The
// simulation's keys are static, so the pass always confirms — what it
// charges is the cost: one local access per row plus one round trip to
// every remote partition, visited in node order.
func (c *Context) calvinReconK(n *Node, refs []workload.LockRef, k func()) {
	perNode := make(map[netsim.NodeID]int, 2)
	for _, ref := range refs {
		perNode[ref.Home]++
	}
	remotes := make([]netsim.NodeID, 0, len(perNode))
	for id := range perNode {
		if id != n.id {
			remotes = append(remotes, id)
		}
	}
	sort.Slice(remotes, func(i, j int) bool { return remotes[i] < remotes[j] })
	i := 0
	var t0 sim.Time
	var step func()
	step = func() {
		if i >= len(remotes) {
			k()
			return
		}
		id := remotes[i]
		rows := perNode[id]
		t0 = c.Env.Now()
		c.Net.RPCK(n.id, id, func(done func()) {
			c.Env.After(c.Costs.LocalAccess*sim.Time(rows), done)
		}, func() {
			c.charge(n, metrics.RemoteAccess, t0)
			i++
			step()
		})
	}
	if local := perNode[n.id]; local > 0 {
		lt := c.Env.Now()
		c.Env.After(c.Costs.LocalAccess*sim.Time(local), func() {
			c.charge(n, metrics.LocalAccess, lt)
			step()
		})
		return
	}
	step()
}
