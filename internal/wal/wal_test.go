package wal

import (
	"errors"
	"testing"

	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/txnwire"
)

func swConfig() pisa.Config {
	cfg := pisa.DefaultConfig()
	cfg.SlotsPerArray = 16
	return cfg
}

func freshSwitch(baseline pisa.Image) func() Replayer {
	return func() Replayer {
		sw := pisa.New(sim.NewEnv(0), swConfig())
		if baseline != nil {
			sw.Restore(baseline)
		}
		return sw
	}
}

func addInstr(idx uint32, delta int64) txnwire.Instr {
	return txnwire.Instr{Op: txnwire.OpAdd, Stage: 0, Array: 0, Index: idx, Operand: delta}
}

// runSwitchTxns executes packets against a live switch, logging intents
// before send and completing records from responses, like a node would.
func runSwitchTxns(t *testing.T, sw *pisa.Switch, env *sim.Env, l *Log, pkts []*txnwire.Packet) []*SwitchRecord {
	t.Helper()
	recs := make([]*SwitchRecord, len(pkts))
	i := 0
	var next func()
	next = func() {
		if i == len(pkts) {
			return
		}
		pkt := pkts[i]
		recs[i] = l.AppendSwitchIntent(pkt.Header.TxnID, pkt.Instrs)
		sw.ExecK(pkt, func(resp *txnwire.Response, err error) {
			if err != nil {
				t.Errorf("ExecK: %v", err)
				return
			}
			recs[i].Complete(resp)
			i++
			next()
		})
	}
	next()
	env.Run()
	return recs
}

// execNoComplete runs one logged packet whose response the node never
// records (it is lost in flight).
func execNoComplete(t *testing.T, sw *pisa.Switch, env *sim.Env, pkt *txnwire.Packet) {
	t.Helper()
	sw.ExecK(pkt, func(_ *txnwire.Response, err error) {
		if err != nil {
			t.Errorf("%v", err)
		}
	})
	env.Run()
}

func TestRecoverySimpleReplay(t *testing.T) {
	env := sim.NewEnv(1)
	sw := pisa.New(env, swConfig())
	sw.WriteRegister(0, 0, 0, 1) // offloaded baseline: x=1
	baseline := sw.Snapshot()

	l := NewLog(0)
	runSwitchTxns(t, sw, env, l, []*txnwire.Packet{
		{Header: txnwire.Header{TxnID: 1}, Instrs: []txnwire.Instr{addInstr(0, 2)}},
		{Header: txnwire.Header{TxnID: 2}, Instrs: []txnwire.Instr{addInstr(0, 3)}},
	})
	want := sw.Snapshot()

	// Crash and recover.
	sw.Reset()
	sw.Restore(baseline)
	n, next, err := RecoverSwitch([]*Log{l}, freshSwitch(baseline), sw)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || next != 2 {
		t.Fatalf("replayed=%d next=%d", n, next)
	}
	got := sw.Snapshot()
	if ai, i, differ := got.Diff(want); differ {
		t.Fatalf("array %d slot %d differs after recovery: %d vs %d", ai, i, got.At(ai, i), want.At(ai, i))
	}
}

// TestRecoveryFigure9 reproduces the paper's Figure 9 scenario: two warm
// transactions T1 (Node1, result lost) and T2 (Node2, result logged) both
// increment x. T2's logged read x=6 implies T1 ran first; recovery must
// reconstruct x=6, not x=4 or any other value.
func TestRecoveryFigure9(t *testing.T) {
	env := sim.NewEnv(1)
	sw := pisa.New(env, swConfig())
	sw.WriteRegister(0, 0, 0, 1) // x = 1
	baseline := sw.Snapshot()

	log1, log2 := NewLog(1), NewLog(2)

	// T1 executes x+=2 on the switch; Node1 logs the intent but crashes
	// before the response arrives (no Complete call).
	pkt := &txnwire.Packet{Header: txnwire.Header{TxnID: 1}, Instrs: []txnwire.Instr{addInstr(0, 2)}}
	log1.AppendSwitchIntent(1, pkt.Instrs)
	execNoComplete(t, sw, env, pkt)

	// T2 executes x+=3 and receives its result (x=6, GID=1).
	runSwitchTxns(t, sw, env, log2, []*txnwire.Packet{
		{Header: txnwire.Header{TxnID: 2}, Instrs: []txnwire.Instr{addInstr(0, 3)}},
	})
	if got := sw.ReadRegister(0, 0, 0); got != 6 {
		t.Fatalf("pre-crash x = %d, want 6", got)
	}

	// Switch crashes; recover from both logs.
	sw.Reset()
	sw.Restore(baseline)
	n, _, err := RecoverSwitch([]*Log{log1, log2}, freshSwitch(baseline), sw)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed %d, want 2", n)
	}
	if got := sw.ReadRegister(0, 0, 0); got != 6 {
		t.Fatalf("recovered x = %d, want 6", got)
	}
}

// TestRecoveryDependencyOrdersInFlight: the in-flight record must be
// placed in the right gap when a later record's logged read depends on it.
func TestRecoveryDependencyOrdersInFlight(t *testing.T) {
	env := sim.NewEnv(3)
	sw := pisa.New(env, swConfig())
	baseline := sw.Snapshot() // x = 0

	logA, logB := NewLog(0), NewLog(1)

	// GID 0: in-flight write x=5 (logged, no result).
	pkt := &txnwire.Packet{Instrs: []txnwire.Instr{{Op: txnwire.OpWrite, Index: 0, Operand: 5}}}
	logA.AppendSwitchIntent(10, pkt.Instrs)
	execNoComplete(t, sw, env, pkt)
	// GID 1: completed add observing x=5 -> 12.
	runSwitchTxns(t, sw, env, logB, []*txnwire.Packet{
		{Instrs: []txnwire.Instr{addInstr(0, 7)}},
	})
	// GID 2: in-flight write x=100 from log A (after B's add).
	pkt = &txnwire.Packet{Instrs: []txnwire.Instr{{Op: txnwire.OpWrite, Index: 0, Operand: 100}}}
	logA.AppendSwitchIntent(11, pkt.Instrs)
	execNoComplete(t, sw, env, pkt)

	want := sw.Snapshot()
	sw.Reset()
	sw.Restore(baseline)
	if _, _, err := RecoverSwitch([]*Log{logA, logB}, freshSwitch(baseline), sw); err != nil {
		t.Fatal(err)
	}
	got := sw.Snapshot()
	if ai, i, differ := got.Diff(want); differ {
		t.Fatalf("array %d slot %d differs: got %d want %d", ai, i, got.At(ai, i), want.At(ai, i))
	}
}

func TestRecoveryNoDependencyAnyOrder(t *testing.T) {
	// Two in-flight commutative adds with no completed reader: any order
	// is consistent; recovery must still produce the correct final sum.
	baseline := pisa.New(sim.NewEnv(0), swConfig()).Snapshot()
	l := NewLog(0)
	l.AppendSwitchIntent(1, []txnwire.Instr{addInstr(0, 2)})
	l.AppendSwitchIntent(2, []txnwire.Instr{addInstr(0, 3)})
	sw := pisa.New(sim.NewEnv(0), swConfig())
	n, _, err := RecoverSwitch([]*Log{l}, freshSwitch(baseline), sw)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || sw.ReadRegister(0, 0, 0) != 5 {
		t.Fatalf("n=%d x=%d, want 2/5", n, sw.ReadRegister(0, 0, 0))
	}
}

func TestRecoveryDetectsInconsistentLogs(t *testing.T) {
	baseline := pisa.New(sim.NewEnv(0), swConfig()).Snapshot()
	l := NewLog(0)
	rec := l.AppendSwitchIntent(1, []txnwire.Instr{addInstr(0, 2)})
	// Forge an impossible result: x was 0, +2 cannot read 99.
	rec.Complete(&txnwire.Response{GID: 0, Results: []txnwire.Result{{Value: 99, OK: true}}})
	sw := pisa.New(sim.NewEnv(0), swConfig())
	_, _, err := RecoverSwitch([]*Log{l}, freshSwitch(baseline), sw)
	if !errors.Is(err, ErrInconsistentLogs) {
		t.Fatalf("err = %v, want ErrInconsistentLogs", err)
	}
}

func TestRecoveryDuplicateGID(t *testing.T) {
	baseline := pisa.New(sim.NewEnv(0), swConfig()).Snapshot()
	l := NewLog(0)
	r1 := l.AppendSwitchIntent(1, []txnwire.Instr{addInstr(0, 1)})
	r2 := l.AppendSwitchIntent(2, []txnwire.Instr{addInstr(0, 1)})
	r1.Complete(&txnwire.Response{GID: 0, Results: []txnwire.Result{{Value: 1, OK: true}}})
	r2.Complete(&txnwire.Response{GID: 0, Results: []txnwire.Result{{Value: 2, OK: true}}})
	if _, err := OrderSwitchRecords([]*Log{l}, freshSwitch(baseline)); err == nil {
		t.Fatal("duplicate GID accepted")
	}
}

// TestRecoveryRandomizedCrashPoints: run a batch of random switch txns,
// "lose" a random subset of responses, crash, recover, and require the
// exact pre-crash state. All operations are adds: commutative, so every
// result-consistent order recovery may pick yields the same state (lost
// blind writes are genuinely order-ambiguous — the paper's "any order"
// case — and are covered by the directed tests instead).
func TestRecoveryRandomizedCrashPoints(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		seed := uint64(trial + 1)
		env := sim.NewEnv(seed)
		rng := sim.NewRNG(seed * 77)
		sw := pisa.New(env, swConfig())
		for i := uint32(0); i < 4; i++ {
			sw.WriteRegister(0, 0, i, int64(rng.Intn(10)))
		}
		baseline := sw.Snapshot()

		logs := []*Log{NewLog(0), NewLog(1), NewLog(2)}
		var recs []*SwitchRecord
		var resps []*txnwire.Response
		var next func()
		next = func() {
			i := len(recs)
			if i == 12 {
				return
			}
			nops := rng.Intn(2) + 1
			instrs := make([]txnwire.Instr, nops)
			for j := range instrs {
				instrs[j] = txnwire.Instr{
					Op: txnwire.OpAdd, Stage: uint8(j), Array: 0,
					Index: uint32(rng.Intn(4)), Operand: int64(rng.Intn(20) - 5),
				}
			}
			l := logs[rng.Intn(len(logs))]
			rec := l.AppendSwitchIntent(uint64(i), instrs)
			sw.ExecK(&txnwire.Packet{Instrs: instrs}, func(resp *txnwire.Response, err error) {
				if err != nil {
					t.Errorf("%v", err)
					return
				}
				c := *resp // the switch's frame owns resp
				c.Results = append([]txnwire.Result(nil), resp.Results...)
				recs = append(recs, rec)
				resps = append(resps, &c)
				next()
			})
		}
		next()
		env.Run()

		// Lose up to 3 responses (in-flight at crash).
		lost := 0
		for i := range recs {
			if lost < 3 && rng.Bool(25) {
				lost++
				continue // never Complete()d
			}
			recs[i].Complete(resps[i])
		}

		want := sw.Snapshot()
		sw.Reset()
		sw.Restore(baseline)
		if _, _, err := RecoverSwitch(logs, freshSwitch(baseline), sw); err != nil {
			t.Fatalf("trial %d (lost %d): %v", trial, lost, err)
		}
		got := sw.Snapshot()
		if ai, i, differ := got.Diff(want); differ {
			// Orders may legitimately differ only when the final
			// states coincide; a state mismatch means recovery chose
			// an inconsistent order.
			t.Fatalf("trial %d (lost %d): array %d slot %d = %d, want %d", trial, lost, ai, i, got.At(ai, i), want.At(ai, i))
		}
	}
}

func TestRecoverNodeRedo(t *testing.T) {
	l := NewLog(0)
	l.AppendCold(1, []ColdWrite{{Table: 1, Key: 5, Field: 0, Value: 42}})
	l.AppendCold(2, []ColdWrite{{Table: 1, Key: 5, Field: 0, Value: 43}, {Table: 1, Key: 6, Field: 0, Value: 7}})
	st := store.New()
	st.CreateTable(1, "t", 1)
	if n := RecoverNode(l, st); n != 2 {
		t.Fatalf("recovered %d records, want 2", n)
	}
	if st.Table(1).Get(5, 0) != 43 || st.Table(1).Get(6, 0) != 7 {
		t.Fatal("redo did not reproduce committed state")
	}
}
