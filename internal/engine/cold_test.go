package engine

import (
	"cmp"
	"errors"
	"slices"
	"testing"

	"repro/internal/lock"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/workload"
)

// coldFixture is a hand-built No-Switch cluster for the cold-path pins:
// every node holds table 1, whose rows materialize on first write.
type coldFixture struct {
	c *Context
	n *Node // the coordinator, node 0
}

func newColdFixture(t *testing.T, nodes int, pol lock.Policy) *coldFixture {
	t.Helper()
	env := sim.NewEnv(1)
	sch, err := LookupScheme(Scheme2PL)
	if err != nil {
		t.Fatal(err)
	}
	c := &Context{
		Env:    env,
		Net:    netsim.New(env, nodes, netsim.DefaultLatency()),
		Costs:  DefaultCosts(),
		Scheme: sch,
		Policy: pol,
	}
	for id := 0; id < nodes; id++ {
		n := NewNode(netsim.NodeID(id), env, pol, sch)
		n.store.CreateTable(1, "t", 1)
		c.Nodes = append(c.Nodes, n)
	}
	return &coldFixture{c: c, n: c.Nodes[0]}
}

// add builds a transaction adding 1 to row `key` of table 1 at each listed
// home node, in that order.
func add(key store.Key, homes ...netsim.NodeID) *workload.Txn {
	txn := &workload.Txn{}
	for _, h := range homes {
		txn.Ops = append(txn.Ops, workload.Op{Table: 1, Key: key, Home: h, Kind: workload.Add, Value: 1, DependsOn: -1})
	}
	return txn
}

// hold takes row `key` at node id for a bystander, so that any attempt
// reaching for it aborts under NO_WAIT.
func (f *coldFixture) hold(id netsim.NodeID, key store.Key) {
	f.c.Nodes[id].locks.AcquireK(lock.NewTxn(1<<40), lock.Key(store.Global(1, key)), lock.Exclusive, func(err error) {
		if err != nil {
			panic(err)
		}
	})
}

// allocsPerExecute runs txn through the No-Switch engine to completion —
// every message delivered — and returns the heap allocations per run after
// a priming run. wantAbort selects the expected outcome.
func (f *coldFixture) allocsPerExecute(t *testing.T, txn *workload.Txn, wantAbort bool) float64 {
	t.Helper()
	k := func(cls Class, err error) {
		if cls != ClassCold || (err != nil) != wantAbort || (err != nil && !errors.Is(err, lock.ErrAbort)) {
			t.Fatalf("Execute finished with (%v, %v), want abort=%v", cls, err, wantAbort)
		}
	}
	run := func() {
		noSwitchEngine{}.Execute(f.c, f.n, txn, k)
		f.c.Env.Run()
	}
	run()
	return testing.AllocsPerRun(500, run)
}

func (f *coldFixture) row(id netsim.NodeID, key store.Key) int64 {
	return f.c.Nodes[id].store.Table(1).Get(key, 0)
}

// checkColdLog asserts that the coordinator's log holds exactly one
// committed record per durable commit of txn — which adds 1 to distinct
// rows — each with one after-image per operation, in operation order: the
// row as it stood after that commit.
func (f *coldFixture) checkColdLog(t *testing.T, txn *workload.Txn, commits int) {
	t.Helper()
	recs := f.n.log.ColdRecords()
	if len(recs) != commits {
		t.Fatalf("%d durable commits left %d cold records, want one per commit", commits, len(recs))
	}
	for i, rec := range recs {
		if !rec.Committed || len(rec.Writes) != len(txn.Ops) {
			t.Fatalf("cold record %d = %+v, want %d committed writes", i, *rec, len(txn.Ops))
		}
		for j, w := range rec.Writes {
			op := txn.Ops[j]
			want := wal.ColdWrite{Table: 1, Key: op.Key, Value: f.row(op.Home, op.Key) - int64(commits-1-i)}
			if w != want {
				t.Fatalf("cold record %d write %d = %+v, want the after-image %+v", i, j, w, want)
			}
		}
	}
}

// TestExecColdLocalZeroAlloc pins a single-node 2PL commit — attempt,
// lock, apply, log, release — at zero heap allocations per attempt,
// Durable off and on: a durable commit copies its after-images into the
// log's chunks and keeps its capture buffer.
func TestExecColdLocalZeroAlloc(t *testing.T) {
	f := newColdFixture(t, 1, lock.NoWait)
	txn := add(7, 0)
	txn.Ops = append(txn.Ops, add(8, 0).Ops...)
	if avg := f.allocsPerExecute(t, txn, false); avg != 0 {
		t.Fatalf("local cold commit allocates %.2f objects/op, want 0", avg)
	}
	if f.row(0, 7) == 0 || f.row(0, 7) != f.row(0, 8) {
		t.Fatalf("rows = %d, %d: the writes never applied", f.row(0, 7), f.row(0, 8))
	}
	if got := len(f.n.log.ColdRecords()); got != 0 {
		t.Fatalf("Durable-off commits left %d log records", got)
	}

	f.c.Durable = true
	before := f.row(0, 7)
	if avg := f.allocsPerExecute(t, txn, false); avg != 0 {
		t.Fatalf("Durable-on local cold commit allocates %.2f objects/op, want 0", avg)
	}
	f.checkColdLog(t, txn, int(f.row(0, 7)-before))
}

// TestExecColdDistributedZeroAlloc pins a distributed 2PL/2PC commit at
// zero heap allocations, Durable off and on: remote operations over RPCK,
// the prepare and decision rounds, every participant handler. One remote
// participant takes the coordinator's single-round-trip form, two and
// three take the parallel fan-out. A durable commit logs at the decision
// point and must not log again when the decision round has landed.
func TestExecColdDistributedZeroAlloc(t *testing.T) {
	for remotes := 1; remotes <= 3; remotes++ {
		f := newColdFixture(t, 4, lock.NoWait)
		homes := []netsim.NodeID{0}
		for id := 1; id <= remotes; id++ {
			homes = append(homes, netsim.NodeID(id))
		}
		sent := f.c.Net.MsgsSent
		if avg := f.allocsPerExecute(t, add(7, homes...), false); avg != 0 {
			t.Fatalf("%d remote participants: cold commit allocates %.2f objects/op, want 0", remotes, avg)
		}
		if f.c.Net.MsgsSent == sent {
			t.Fatal("nothing crossed the network")
		}
		for _, id := range homes {
			if f.row(id, 7) == 0 || f.row(id, 7) != f.row(0, 7) {
				t.Fatalf("%d remote participants: row at node %d = %d, at node 0 = %d", remotes, id, f.row(id, 7), f.row(0, 7))
			}
			if f.c.Nodes[id].locks.Owners(lock.Key(store.Global(1, 7))) != 0 {
				t.Fatalf("%d remote participants: node %d still holds the row lock", remotes, id)
			}
		}
		if got := len(f.c.freeAttempts); got != 1 {
			t.Fatalf("%d remote participants: %d free attempts, want 1", remotes, got)
		}

		f.c.Durable = true
		before := f.row(0, 7)
		txn := add(7, homes...)
		if avg := f.allocsPerExecute(t, txn, false); avg != 0 {
			t.Fatalf("%d remote participants: Durable-on commit allocates %.2f objects/op, want 0", remotes, avg)
		}
		f.checkColdLog(t, txn, int(f.row(0, 7)-before))
	}
}

// TestAbortLocalZeroAlloc pins a single-node abort: one write applied,
// then a NO_WAIT conflict, undo and release, all without allocating.
func TestAbortLocalZeroAlloc(t *testing.T) {
	f := newColdFixture(t, 1, lock.NoWait)
	f.hold(0, 9)
	txn := add(7, 0)
	txn.Ops = append(txn.Ops, add(9, 0).Ops...)
	if avg := f.allocsPerExecute(t, txn, true); avg != 0 {
		t.Fatalf("local abort allocates %.2f objects/op, want 0", avg)
	}
	if f.row(0, 7) != 0 {
		t.Fatalf("row 7 = %d after aborts only: undo not applied", f.row(0, 7))
	}
	if f.n.locks.Owners(lock.Key(store.Global(1, 7))) != 0 {
		t.Fatal("aborted attempt still holds row 7")
	}
}

// TestAbortDistributedRecyclesAttemptZeroAlloc: an abort with writes at
// two remote nodes sends two rollback messages and allocates nothing. The
// attempt stays off the free list while they travel and returns to it when
// the last one has landed — it used to be leaked to the garbage collector.
func TestAbortDistributedRecyclesAttemptZeroAlloc(t *testing.T) {
	f := newColdFixture(t, 4, lock.NoWait)
	f.hold(3, 9)
	txn := add(7, 1, 2)
	txn.Ops = append(txn.Ops, add(9, 3).Ops...)
	if avg := f.allocsPerExecute(t, txn, true); avg != 0 {
		t.Fatalf("distributed abort allocates %.2f objects/op, want 0", avg)
	}
	primed := len(f.c.freeAttempts)
	if primed != 1 {
		t.Fatalf("%d free attempts after the rollbacks landed, want 1", primed)
	}

	aborted := false
	noSwitchEngine{}.Execute(f.c, f.n, txn, func(_ Class, err error) {
		aborted = err != nil
		// The coordinator has given up; its rollback messages are still on
		// their way to nodes 1 and 2.
		if got := len(f.c.freeAttempts); got != primed-1 {
			t.Errorf("%d free attempts at abort time, want %d: recycled with rollbacks in flight", got, primed-1)
		}
		if f.row(1, 7) != 1 || f.row(2, 7) != 1 {
			t.Errorf("remote rows = %d, %d at abort time, want the uncommitted 1, 1", f.row(1, 7), f.row(2, 7))
		}
	})
	f.c.Env.Run()
	if !aborted {
		t.Fatal("the attempt did not abort")
	}
	if got := len(f.c.freeAttempts); got != primed {
		t.Fatalf("%d free attempts once the rollbacks landed, want %d", got, primed)
	}
	for _, id := range []netsim.NodeID{1, 2} {
		if f.row(id, 7) != 0 || f.c.Nodes[id].locks.Owners(lock.Key(store.Global(1, 7))) != 0 {
			t.Fatalf("node %d: row = %d, owners = %d after rollback", id, f.row(id, 7),
				f.c.Nodes[id].locks.Owners(lock.Key(store.Global(1, 7))))
		}
	}
}

// TestColdPathConservation is the nothing-recycled-early check: 4 nodes x
// 16 workers hammer a 32-key range with multi-node increments, so most
// attempts abort with rollback messages in flight while their neighbours
// commit, and attempts, slots and lock contexts recycle constantly. Every
// aborted attempt's undo must be applied exactly once: once the run has
// drained, each row holds exactly the committed increments and no lock is
// held or waited for. An attempt handed out again while its rollback was
// still travelling shows here as a wrong sum or a stuck lock.
func TestColdPathConservation(t *testing.T) {
	const (
		nodes, workers = 4, 16
		keys           = 32
		perWorker      = 60
	)
	for _, pol := range []lock.Policy{lock.NoWait, lock.WaitDie} {
		f := newColdFixture(t, nodes, pol)
		c := f.c
		var want [nodes][keys]int64
		commits, aborts := 0, 0
		var lastCommit sim.Time

		for id := 0; id < nodes; id++ {
			for w := 0; w < workers; w++ {
				n := c.Nodes[id]
				rng := sim.NewRNG(uint64(id)<<16 | uint64(w))
				left := perWorker
				var txn *workload.Txn
				var begin, retry func()
				var done func(Class, error)
				begin = func() {
					if left == 0 {
						return
					}
					left--
					txn = &workload.Txn{}
					for i := 0; i < 4; i++ {
						home := n.id
						if rng.Intn(2) == 0 {
							home = netsim.NodeID(rng.Intn(nodes))
						}
						txn.Ops = append(txn.Ops, workload.Op{
							Table: 1, Key: store.Key(rng.Intn(keys)), Home: home,
							Kind: workload.Add, Value: int64(1 + rng.Intn(9)), DependsOn: -1,
						})
					}
					if pol == lock.WaitDie {
						// The table's FIFO queues let a younger waiter end up
						// behind an older one, so WAIT_DIE as implemented can
						// deadlock on unordered lock sets (a bounded cluster
						// run just loses those workers; a run to completion
						// would never end). Ordered acquisition rules cycles
						// out and still waits, dies and rolls back remotely.
						slices.SortFunc(txn.Ops, func(a, b workload.Op) int {
							return cmp.Or(cmp.Compare(a.Home, b.Home), cmp.Compare(a.Key, b.Key))
						})
					}
					retry()
				}
				retry = func() { noSwitchEngine{}.Execute(c, n, txn, done) }
				done = func(_ Class, err error) {
					if err != nil {
						aborts++
						c.Env.After(sim.Time(1+rng.Intn(int(c.Costs.AbortBackoff))), retry)
						return
					}
					commits++
					lastCommit = c.Env.Now()
					for _, op := range txn.Ops {
						want[op.Home][op.Key] += op.Value
					}
					begin()
				}
				c.Env.After(0, begin)
			}
		}
		// A healthy run drains within some 30 ms of virtual time; a stuck
		// lock would keep the other workers retrying forever.
		const limit = 200 * sim.Millisecond
		c.Env.RunUntil(limit)

		if commits != nodes*workers*perWorker || c.Env.Pending() != 0 {
			t.Fatalf("%v: %d of %d commits, %d events pending after %v: a lock is stuck", pol, commits, nodes*workers*perWorker, c.Env.Pending(), limit)
		}
		if aborts < commits/4 {
			t.Fatalf("%v: only %d aborts for %d commits: the range is not contended enough to test anything", pol, aborts, commits)
		}
		for id := 0; id < nodes; id++ {
			for k := 0; k < keys; k++ {
				if got := f.row(netsim.NodeID(id), store.Key(k)); got != want[id][k] {
					t.Errorf("%v: node %d key %d = %d, committed increments sum to %d", pol, id, k, got, want[id][k])
				}
				lk := lock.Key(store.Global(1, store.Key(k)))
				if tb := c.Nodes[id].locks; tb.Owners(lk) != 0 || tb.WaiterCount(lk) != 0 {
					t.Errorf("%v: node %d key %d: %d owners, %d waiters after the run", pol, id, k, tb.Owners(lk), tb.WaiterCount(lk))
				}
			}
		}
		// Every attempt came home, once.
		seen := map[*attempt]bool{}
		for _, at := range c.freeAttempts {
			if seen[at] || at.refs != 0 || at.used != 0 {
				t.Fatalf("%v: free list holds a duplicate or live attempt (refs=%d used=%d)", pol, at.refs, at.used)
			}
			seen[at] = true
		}
		// A worker retries while its aborted attempt's rollbacks still
		// travel, so a few attempts per worker exist — not one per try.
		if len(seen) == 0 || len(seen) > 4*nodes*workers {
			t.Fatalf("%v: %d attempts on the free list for %d workers and %d tries", pol, len(seen), nodes*workers, commits+aborts)
		}
		t.Logf("%v: %d commits, %d aborts, %d pooled attempts, last commit at %v", pol, commits, aborts, len(seen), lastCommit)
	}
}

// TestFirstTouchOrderIsDeterministic pins the two orders that used to come
// out of a Go map range, re-randomised on every run. Participants are
// listed in the order the attempt first touched their nodes. And a lock set
// is released in acquisition order, which under WAIT_DIE decides an
// outcome: T0 holds rows a and b; older T1 waits on a, oldest T2 on b, and
// both want row c next. Released a-then-b, T1 wakes first, takes c, and T2
// — older — waits for it: nobody aborts. The other way round T2 takes c
// and the younger T1 dies.
func TestFirstTouchOrderIsDeterministic(t *testing.T) {
	f := newColdFixture(t, 4, lock.WaitDie)
	at := f.c.newAttempt()
	for _, id := range []netsim.NodeID{3, 0, 1, 3, 2, 1} {
		at.lockTxn(id)
	}
	var order []netsim.NodeID
	for _, p := range at.participants(0) {
		order = append(order, p.Node)
	}
	if !slices.Equal(order, []netsim.NodeID{3, 1, 2}) {
		t.Fatalf("participants = %v, want first-touch order [3 1 2]", order)
	}
	f.c.releaseAttempt(at)

	const a, b, c, pad = 1, 2, 3, 100
	local := func(keys ...store.Key) *workload.Txn {
		txn := &workload.Txn{}
		for _, k := range keys {
			txn.Ops = append(txn.Ops, add(k, 0).Ops...)
		}
		return txn
	}
	for run := 0; run < 20; run++ {
		f := newColdFixture(t, 1, lock.WaitDie)
		commits := 0
		k := func(_ Class, err error) {
			if err != nil {
				t.Fatalf("run %d: an attempt aborted (%v): the lock set was not released in acquisition order", run, err)
			}
			commits++
		}
		// Timestamps are drawn at Execute: T2 is oldest, T0 youngest. The
		// private pad rows delay T1 and T2 until T0 holds a and b.
		noSwitchEngine{}.Execute(f.c, f.n, local(pad+1, pad+2, b, c), k) // T2
		noSwitchEngine{}.Execute(f.c, f.n, local(pad+3, a, c), k)        // T1
		noSwitchEngine{}.Execute(f.c, f.n, local(a, b), k)               // T0
		f.c.Env.Run()
		if commits != 3 || f.n.locks.Stats.Waits != 3 {
			t.Fatalf("run %d: %d commits, %d waits, want 3 and 3 (T1 on a, T2 on b, T2 on c)", run, commits, f.n.locks.Stats.Waits)
		}
	}
}
