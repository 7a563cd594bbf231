package engine

import (
	"slices"
	"testing"

	"repro/internal/hotset"
	"repro/internal/layout"
	"repro/internal/lock"
	"repro/internal/netsim"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestAttemptPoolRecycleZeroAlloc pins the attempt free-list cycle —
// newAttempt, lockTxn materialization, releaseAttempt — at zero heap
// allocations once the pool is primed. This is the arena-allocation
// invariant of the coroutine-free scheduler core: steady-state cold
// execution must not allocate per-attempt state.
func TestAttemptPoolRecycleZeroAlloc(t *testing.T) {
	c := &Context{Env: sim.NewEnv(1)}
	// Prime the pool: first incarnation allocates the attempt and its
	// lock contexts; every later incarnation must recycle both.
	at := c.newAttempt()
	at.lockTxn(0)
	at.lockTxn(1)
	c.releaseAttempt(at)
	if avg := testing.AllocsPerRun(1000, func() {
		at := c.newAttempt()
		at.lockTxn(0)
		at.lockTxn(1)
		c.releaseAttempt(at)
	}); avg != 0 {
		t.Fatalf("attempt recycle allocates %.2f objects/op, want 0", avg)
	}
}

// TestDurableOffWriteCaptureZeroAlloc pins the durability gate's
// allocation discipline: with Context.Durable off, the write path through
// applyOp retains no redo images and must allocate nothing in steady
// state — durability costs the non-durable configuration zero bytes. With
// Durable on the attempt captures one after-image per write, in order, in
// a buffer it keeps across incarnations (the WAL copies what it logs), so
// the durable path allocates nothing per attempt either.
func TestDurableOffWriteCaptureZeroAlloc(t *testing.T) {
	env := sim.NewEnv(1)
	sch, err := LookupScheme(Scheme2PL)
	if err != nil {
		t.Fatal(err)
	}
	n := NewNode(0, env, lock.NoWait, sch)
	tb := n.store.CreateTable(1, "t", 2)
	tb.Set(1, 0, 0)
	c := &Context{Env: env, Nodes: []*Node{n}}
	op := workload.Op{Table: 1, Key: 1, Field: 0, Kind: workload.Add, Value: 1, DependsOn: -1}

	var captured []wal.ColdWrite
	cycle := func() {
		at := c.newAttempt()
		c.applyOp(at, 0, op)
		c.applyOp(at, 0, op)
		captured = at.writes
		c.releaseAttempt(at)
	}
	cycle() // prime the attempt pool and the undo slice capacity
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("Durable-off write path allocates %.2f objects/op, want 0", avg)
	}
	if len(captured) != 0 {
		t.Fatalf("Durable-off write path captured %v", captured)
	}

	c.Durable = true
	cycle()
	now := tb.Get(1, 0)
	want := []wal.ColdWrite{{Table: 1, Key: 1, Field: 0, Value: now - 1}, {Table: 1, Key: 1, Field: 0, Value: now}}
	if !slices.Equal(captured, want) {
		t.Fatalf("Durable-on write path captured %v, want the two after-images %v", captured, want)
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("Durable-on write path allocates %.2f objects/op, want 0: the attempt lost its capture buffer", avg)
	}
}

// switchPathFixture is a hand-built two-node P4DB context for the
// switch-path allocation pins: table 1 holds four hot rows (keys 0..3,
// resident in a 2-stage x 1-array x 2-slot switch, so two of them share a
// register array) and one cold row (key 100) homed at node 0.
type switchPathFixture struct {
	c        *Context
	n        *Node
	together []store.Key // two hot keys in one register array: a two-pass packet
	apart    []store.Key // two hot keys in different arrays: a one-pass packet
}

const coldKey = store.Key(100)

func newSwitchPathFixture(t *testing.T) *switchPathFixture {
	t.Helper()
	env := sim.NewEnv(1)
	sch, err := LookupScheme(Scheme2PL)
	if err != nil {
		t.Fatal(err)
	}
	swCfg := pisa.DefaultConfig()
	swCfg.Stages, swCfg.ArraysPerStage, swCfg.SlotsPerArray = 2, 1, 2
	c := &Context{
		Env:       env,
		Net:       netsim.New(env, 2, netsim.DefaultLatency()),
		Sw:        pisa.New(env, swCfg),
		Costs:     DefaultCosts(),
		Scheme:    sch,
		Policy:    lock.NoWait,
		SwitchCfg: swCfg,
		UseSwitch: true,
	}
	for id := netsim.NodeID(0); id < 2; id++ {
		n := NewNode(id, env, lock.NoWait, sch)
		n.store.CreateTable(1, "t", 1).Set(coldKey, 0, 0)
		c.Nodes = append(c.Nodes, n)
	}
	var hot []store.GlobalKey
	for k := store.Key(0); k < 4; k++ {
		hot = append(hot, store.GlobalField(1, 0, k))
	}
	hs := hotset.FromKeys(hot, nil, len(hot))
	c.Layout = layout.Optimal(hs.Graph(), layout.Spec{Stages: 2, ArraysPerStage: 1, SlotsPerArray: 2})
	c.HotIdx = hotset.BuildIndex(hs, c.Layout)

	f := &switchPathFixture{c: c, n: c.Nodes[0]}
	stage := func(k store.Key) uint8 {
		s, ok := c.Layout.SlotOf(layout.TupleID(store.GlobalField(1, 0, k)))
		if !ok {
			t.Fatalf("hot key %d has no slot", k)
		}
		return s.Stage
	}
	for k := store.Key(1); k < 4; k++ {
		if stage(k) == stage(0) {
			f.together = []store.Key{0, k}
		} else {
			f.apart = []store.Key{0, k}
		}
	}
	return f
}

// txn builds a transaction adding 1 to each key of table 1, homed at node 0.
func (f *switchPathFixture) txn(keys ...store.Key) *workload.Txn {
	txn := &workload.Txn{}
	for _, k := range keys {
		txn.Ops = append(txn.Ops, workload.Op{Table: 1, Key: k, Kind: workload.Add, Value: 1, DependsOn: -1})
	}
	return txn
}

// allocsPerExecute drives the transactions through p4dbEngine.Execute,
// one at a time to completion, and returns the heap allocations per round
// after a priming round.
func (f *switchPathFixture) allocsPerExecute(t *testing.T, want Class, txns ...*workload.Txn) float64 {
	t.Helper()
	k := func(cls Class, err error) {
		if cls != want || err != nil {
			t.Fatalf("Execute finished with (%v, %v), want class %v", cls, err, want)
		}
	}
	round := func() {
		for _, txn := range txns {
			p4dbEngine{}.Execute(f.c, f.n, txn, k)
			f.c.Env.Run()
		}
	}
	round()
	return testing.AllocsPerRun(500, round)
}

// TestExecHotZeroAlloc pins the whole hot-transaction chain — Execute,
// compile, wire round trip, node-to-switch RPC, switch execution, reply —
// at zero heap allocations per transaction with Durable off, for a
// single-pass and a multipass packet.
func TestExecHotZeroAlloc(t *testing.T) {
	f := newSwitchPathFixture(t)
	avg := f.allocsPerExecute(t, ClassHot, f.txn(f.apart...), f.txn(f.together...))
	if st := f.c.Sw.Stats; st.SinglePass == 0 || st.MultiPass == 0 || st.SinglePass != st.MultiPass {
		t.Fatalf("fixture did not produce one single-pass and one multipass packet per round: %+v", st)
	}
	if avg != 0 {
		t.Fatalf("hot transactions allocate %.2f objects per pair, want 0", avg)
	}
}

// TestExecWarmLocalZeroAlloc pins a single-node warm commit — cold part
// under 2PL, switch sub-transaction inside the Decision&Switch phase — at
// zero heap allocations per attempt, Durable off and on. A durable commit
// leaves exactly one switch record (the intent, back-filled with GID and
// one result per instruction) and one cold record whose writes are the
// after-images; both are carved from the log's chunks.
func TestExecWarmLocalZeroAlloc(t *testing.T) {
	f := newSwitchPathFixture(t)
	warm := f.txn(coldKey, f.apart[0], f.apart[1])
	if avg := f.allocsPerExecute(t, ClassWarm, warm); avg != 0 {
		t.Fatalf("Durable-off local warm commit allocates %.2f objects/op, want 0", avg)
	}
	if got := f.n.store.Table(1).Get(coldKey, 0); got == 0 {
		t.Fatal("the cold part never applied")
	}
	if s, c := len(f.n.log.SwitchRecords()), len(f.n.log.ColdRecords()); s != 0 || c != 0 {
		t.Fatalf("Durable-off commits left %d switch and %d cold records", s, c)
	}

	f.c.Durable = true
	commits := f.c.Sw.Stats.Txns
	if avg := f.allocsPerExecute(t, ClassWarm, warm); avg != 0 {
		t.Fatalf("Durable-on local warm commit allocates %.2f objects/op, want 0", avg)
	}
	commits = f.c.Sw.Stats.Txns - commits
	srecs, crecs := f.n.log.SwitchRecords(), f.n.log.ColdRecords()
	if int64(len(srecs)) != commits || int64(len(crecs)) != commits {
		t.Fatalf("%d durable commits left %d switch and %d cold records, want one of each per commit", commits, len(srecs), len(crecs))
	}
	for i, rec := range srecs {
		if !rec.HasGID || len(rec.Instrs) != 2 || len(rec.Results) != 2 {
			t.Fatalf("switch record %d: HasGID=%v, %d instructions, %d results; want a completed two-instruction intent", i, rec.HasGID, len(rec.Instrs), len(rec.Results))
		}
		if i > 0 && rec.GID != srecs[i-1].GID+1 {
			t.Fatalf("switch record %d has GID %d after %d", i, rec.GID, srecs[i-1].GID)
		}
	}
	row := f.n.store.Table(1).Get(coldKey, 0)
	for i, rec := range crecs {
		want := wal.ColdWrite{Table: 1, Key: coldKey, Value: row - int64(len(crecs)-1-i)}
		if !rec.Committed || len(rec.Writes) != 1 || rec.Writes[0] != want {
			t.Fatalf("cold record %d = %+v, want one committed write %+v", i, *rec, want)
		}
	}
}

// TestExecWarmDistributedRecyclesAttempt: a warm commit with a remote
// participant returns its attempt and frame to the free lists once the
// participant's multicast commit handler has run (it used to leak both),
// and the remote row lock is gone by then.
func TestExecWarmDistributedRecyclesAttempt(t *testing.T) {
	f := newSwitchPathFixture(t)
	warm := f.txn(coldKey, f.apart[0])
	warm.Ops[0].Home = 1
	for i := 1; i <= 3; i++ {
		p4dbEngine{}.Execute(f.c, f.n, warm, func(cls Class, err error) {
			if cls != ClassWarm || err != nil {
				t.Fatalf("Execute finished with (%v, %v)", cls, err)
			}
		})
		f.c.Env.Run()
		if a, w := len(f.c.freeAttempts), len(f.c.freeWarmFrames); a != 1 || w != 1 {
			t.Fatalf("after commit %d: %d free attempts, %d free warm frames, want 1 and 1", i, a, w)
		}
		if got := f.c.Nodes[1].store.Table(1).Get(coldKey, 0); got != int64(i) {
			t.Fatalf("after commit %d: remote row = %d", i, got)
		}
	}
}
