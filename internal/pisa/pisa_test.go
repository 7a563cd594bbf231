package pisa

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/txnwire"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SlotsPerArray = 64
	return cfg
}

func add(stage, array uint8, idx uint32, delta int64) txnwire.Instr {
	return txnwire.Instr{Op: txnwire.OpAdd, Stage: stage, Array: array, Index: idx, Operand: delta}
}

func read(stage, array uint8, idx uint32) txnwire.Instr {
	return txnwire.Instr{Op: txnwire.OpRead, Stage: stage, Array: array, Index: idx}
}

func write(stage, array uint8, idx uint32, v int64) txnwire.Instr {
	return txnwire.Instr{Op: txnwire.OpWrite, Stage: stage, Array: array, Index: idx, Operand: v}
}

// execCopy runs pkt through ExecK and hands k a copy of the response:
// ExecK's Response belongs to the switch's frame and is valid only until its
// continuation returns.
func execCopy(sw *Switch, pkt *txnwire.Packet, k func(*txnwire.Response, error)) {
	sw.ExecK(pkt, func(r *txnwire.Response, err error) {
		if r == nil {
			k(nil, err)
			return
		}
		c := *r
		c.Results = append([]txnwire.Result(nil), r.Results...)
		k(&c, err)
	})
}

// execOne runs a single packet to completion on a fresh env.
func execOne(t *testing.T, sw *Switch, e *sim.Env, pkt *txnwire.Packet) *txnwire.Response {
	t.Helper()
	var resp *txnwire.Response
	var err error
	execCopy(sw, pkt, func(r *txnwire.Response, e error) { resp, err = r, e })
	e.Run()
	if err != nil {
		t.Fatalf("ExecK: %v", err)
	}
	return resp
}

// loop runs body n times as a continuation chain started at the current
// instant: each iteration gets next, which starts the following one.
func loop(e *sim.Env, n int, body func(next func())) {
	i := 0
	var next func()
	next = func() {
		if i == n {
			return
		}
		i++
		body(next)
	}
	e.After(0, next)
}

func TestSinglePassReadWriteAdd(t *testing.T) {
	e := sim.NewEnv(1)
	sw := New(e, testConfig())
	sw.WriteRegister(0, 0, 5, 100)
	pkt := &txnwire.Packet{Instrs: []txnwire.Instr{
		read(0, 0, 5),
		write(1, 0, 3, 7),
		add(2, 0, 9, -2),
	}}
	resp := execOne(t, sw, e, pkt)
	if resp.Results[0].Value != 100 {
		t.Fatalf("read = %d, want 100", resp.Results[0].Value)
	}
	if sw.ReadRegister(1, 0, 3) != 7 {
		t.Fatalf("write did not land")
	}
	if resp.Results[2].Value != -2 || sw.ReadRegister(2, 0, 9) != -2 {
		t.Fatalf("add = %d, want -2", resp.Results[2].Value)
	}
	if resp.GID != 0 || sw.NextGID() != 1 {
		t.Fatalf("GID = %d next = %d, want 0/1", resp.GID, sw.NextGID())
	}
}

func TestConstrainedWrite(t *testing.T) {
	e := sim.NewEnv(1)
	sw := New(e, testConfig())
	sw.WriteRegister(0, 0, 0, 10)
	// Withdraw 15 from balance 10 must be refused and leave state intact.
	pkt := &txnwire.Packet{Instrs: []txnwire.Instr{
		{Op: txnwire.OpCondAddGE0, Stage: 0, Array: 0, Index: 0, Operand: -15},
	}}
	resp := execOne(t, sw, e, pkt)
	if resp.Results[0].OK {
		t.Fatal("constrained write applied despite violated predicate")
	}
	if resp.Results[0].Value != 10 || sw.ReadRegister(0, 0, 0) != 10 {
		t.Fatalf("balance changed: %d", sw.ReadRegister(0, 0, 0))
	}
	// Withdraw 10 from 10 is allowed (result 0 >= 0).
	pkt2 := &txnwire.Packet{Instrs: []txnwire.Instr{
		{Op: txnwire.OpCondAddGE0, Stage: 0, Array: 0, Index: 0, Operand: -10},
	}}
	resp2 := execOne(t, sw, e, pkt2)
	if !resp2.Results[0].OK || sw.ReadRegister(0, 0, 0) != 0 {
		t.Fatalf("allowed constrained write refused")
	}
}

func TestOpMax(t *testing.T) {
	e := sim.NewEnv(1)
	sw := New(e, testConfig())
	sw.WriteRegister(0, 0, 0, 5)
	pkt := &txnwire.Packet{Instrs: []txnwire.Instr{
		{Op: txnwire.OpMax, Stage: 0, Array: 0, Index: 0, Operand: 3},
		{Op: txnwire.OpMax, Stage: 1, Array: 0, Index: 0, Operand: 9},
	}}
	sw.WriteRegister(1, 0, 0, 5)
	execOne(t, sw, e, pkt)
	if sw.ReadRegister(0, 0, 0) != 5 || sw.ReadRegister(1, 0, 0) != 9 {
		t.Fatalf("max wrong: %d %d", sw.ReadRegister(0, 0, 0), sw.ReadRegister(1, 0, 0))
	}
}

func TestMultipassNeedsFlag(t *testing.T) {
	e := sim.NewEnv(1)
	sw := New(e, testConfig())
	pkt := &txnwire.Packet{Instrs: []txnwire.Instr{
		read(0, 0, 1),
		write(0, 0, 1, 5), // same array again -> 2 passes
	}}
	var err error
	sw.ExecK(pkt, func(_ *txnwire.Response, e error) { err = e })
	e.Run()
	if err == nil {
		t.Fatal("unmarked multipass packet accepted")
	}
}

func TestMultipassExecutes(t *testing.T) {
	e := sim.NewEnv(1)
	sw := New(e, testConfig())
	sw.WriteRegister(0, 0, 1, 41)
	pkt := &txnwire.Packet{
		Header: txnwire.Header{IsMultipass: true, LockLeft: true},
		Instrs: []txnwire.Instr{
			read(0, 0, 1),
			add(0, 0, 1, 1), // second pass
		},
	}
	resp := execOne(t, sw, e, pkt)
	if resp.Results[0].Value != 41 || resp.Results[1].Value != 42 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if left, right := sw.lock.Held(); left || right {
		t.Fatal("pipeline lock leaked after multipass txn")
	}
	if sw.Stats.MultiPass != 1 {
		t.Fatalf("MultiPass stat = %d", sw.Stats.MultiPass)
	}
}

// TestPipelinedSerialOrder checks the core Section 5.1 claim: concurrent
// single-pass transactions produce exactly the state of a serial execution
// in GID order. Random add/write/read mixes from many concurrent clients
// are replayed sequentially on a reference array and compared.
func TestPipelinedSerialOrder(t *testing.T) {
	cfg := testConfig()
	e := sim.NewEnv(99)
	sw := New(e, cfg)
	type logged struct {
		gid uint64
		pkt *txnwire.Packet
	}
	var log []logged
	const clients = 24
	const txnsPerClient = 40
	for c := 0; c < clients; c++ {
		rng := e.Rand().Fork(uint64(c))
		loop(e, txnsPerClient, func(next func()) {
			nops := rng.Intn(4) + 1
			instrs := make([]txnwire.Instr, 0, nops)
			stage := 0
			for j := 0; j < nops && stage < cfg.Stages; j++ {
				op := txnwire.Op(rng.Intn(3)) // read/write/add
				instrs = append(instrs, txnwire.Instr{
					Op: op, Stage: uint8(stage), Array: uint8(rng.Intn(cfg.ArraysPerStage)),
					Index: uint32(rng.Intn(8)), Operand: int64(rng.Intn(100) - 50),
				})
				stage += rng.Intn(3) + 1
			}
			pkt := &txnwire.Packet{Instrs: instrs}
			sw.ExecK(pkt, func(resp *txnwire.Response, err error) {
				if err != nil {
					t.Errorf("ExecK: %v", err)
					return
				}
				log = append(log, logged{resp.GID, pkt})
				e.After(sim.Time(rng.Intn(2000)), next)
			})
		})
	}
	e.Run()

	// Replay serially in GID order on a reference switch.
	ref := New(sim.NewEnv(1), cfg)
	ordered := make([]*txnwire.Packet, len(log))
	for _, l := range log {
		if ordered[l.gid] != nil {
			t.Fatalf("duplicate GID %d", l.gid)
		}
		ordered[l.gid] = l.pkt
	}
	for _, pkt := range ordered {
		ref.ApplyTxn(pkt.Instrs)
	}
	got, want := sw.Snapshot(), ref.Snapshot()
	if ai, i, differ := got.Diff(want); differ {
		t.Fatalf("array %d slot %d: concurrent=%d serial=%d — pipelined execution not serializable", ai, i, got.At(ai, i), want.At(ai, i))
	}
}

// TestMultipassAtomicity checks Section 5.2: while a multi-pass
// transaction is between passes, no other transaction may observe its
// partial writes. Multipass txns add +X then -X to the same register;
// concurrent readers must always read 0.
func TestMultipassAtomicity(t *testing.T) {
	for _, fine := range []bool{false, true} {
		cfg := testConfig()
		cfg.FineLocks = fine
		e := sim.NewEnv(7)
		sw := New(e, cfg)
		bad := 0
		for c := 0; c < 8; c++ {
			rng := e.Rand().Fork(uint64(c))
			loop(e, 30, func(next func()) {
				x := int64(rng.Intn(50) + 1)
				pkt := &txnwire.Packet{
					Header: txnwire.Header{IsMultipass: true},
					Instrs: []txnwire.Instr{
						add(0, 0, 0, x),
						add(0, 0, 0, -x), // same array -> pass 2
					},
				}
				sw.ExecK(pkt, func(_ *txnwire.Response, err error) {
					if err != nil {
						t.Errorf("writer: %v", err)
						return
					}
					e.After(sim.Time(rng.Intn(500)), next)
				})
			})
		}
		for c := 0; c < 8; c++ {
			rng := e.Rand().Fork(uint64(100 + c))
			loop(e, 60, func(next func()) {
				pkt := &txnwire.Packet{Instrs: []txnwire.Instr{read(0, 0, 0)}}
				sw.ExecK(pkt, func(resp *txnwire.Response, err error) {
					if err != nil {
						t.Errorf("reader: %v", err)
						return
					}
					if resp.Results[0].Value != 0 {
						bad++
					}
					e.After(sim.Time(rng.Intn(300)), next)
				})
			})
		}
		e.Run()
		if bad > 0 {
			t.Fatalf("fine=%v: %d readers observed partial multipass state", fine, bad)
		}
	}
}

func TestFineLocksAllowDisjointConcurrency(t *testing.T) {
	// Two multipass transactions on disjoint pipeline halves should
	// overlap with fine-grained locks and serialize without them.
	run := func(fine bool) sim.Time {
		cfg := testConfig()
		cfg.FineLocks = fine
		cfg.FastRecirc = false
		e := sim.NewEnv(3)
		sw := New(e, cfg)
		mk := func(stage uint8) *txnwire.Packet {
			return &txnwire.Packet{
				Header: txnwire.Header{IsMultipass: true},
				Instrs: []txnwire.Instr{
					add(stage, 0, 0, 1), add(stage, 0, 0, 1), add(stage, 0, 0, 1),
					add(stage, 0, 0, 1), add(stage, 0, 0, 1), add(stage, 0, 0, 1),
				},
			}
		}
		var end sim.Time
		done := func(_ *txnwire.Response, err error) {
			if err != nil {
				t.Errorf("%v", err)
			}
			if e.Now() > end {
				end = e.Now()
			}
		}
		sw.ExecK(mk(0), done)
		sw.ExecK(mk(uint8(cfg.Stages-1)), done)
		e.Run()
		return end
	}
	fine, coarse := run(true), run(false)
	if fine >= coarse {
		t.Fatalf("fine-grained locking no faster: fine=%v coarse=%v", fine, coarse)
	}
}

func TestFastRecircShortensMultipass(t *testing.T) {
	run := func(fast bool) sim.Time {
		cfg := testConfig()
		cfg.FastRecirc = fast
		e := sim.NewEnv(3)
		sw := New(e, cfg)
		pkt := &txnwire.Packet{
			Header: txnwire.Header{IsMultipass: true},
			Instrs: []txnwire.Instr{add(0, 0, 0, 1), add(0, 0, 0, 1), add(0, 0, 0, 1)},
		}
		var end sim.Time
		sw.ExecK(pkt, func(_ *txnwire.Response, err error) {
			if err != nil {
				t.Errorf("%v", err)
			}
			end = e.Now()
		})
		e.Run()
		return end
	}
	if fast, slow := run(true), run(false); fast >= slow {
		t.Fatalf("fast recirc not faster: %v vs %v", fast, slow)
	}
}

func TestSinglePassBlockedByConflictingLock(t *testing.T) {
	cfg := testConfig()
	cfg.FineLocks = true
	e := sim.NewEnv(5)
	sw := New(e, cfg)
	var readerDone, writerDone sim.Time
	pkt := &txnwire.Packet{
		Header: txnwire.Header{IsMultipass: true},
		Instrs: []txnwire.Instr{add(0, 0, 0, 1), add(0, 0, 0, 1)},
	}
	sw.ExecK(pkt, func(_ *txnwire.Response, err error) {
		if err != nil {
			t.Errorf("%v", err)
		}
		writerDone = e.Now()
	})
	e.After(10, func() { // arrive while the lock is held
		pkt := &txnwire.Packet{Instrs: []txnwire.Instr{read(0, 0, 0)}}
		sw.ExecK(pkt, func(resp *txnwire.Response, err error) {
			if err != nil {
				t.Errorf("%v", err)
				return
			}
			if resp.Recircs == 0 {
				t.Error("reader on locked half was not recirculated")
			}
			readerDone = e.Now()
		})
	})
	e.Run()
	if readerDone <= writerDone-sw.cfg.PipelineLatency {
		t.Fatalf("reader finished before writer's final pass: %v vs %v", readerDone, writerDone)
	}
	if sw.Stats.Recircs == 0 {
		t.Fatal("no recirculations recorded")
	}
}

func TestGIDsAreDenseAndOrdered(t *testing.T) {
	e := sim.NewEnv(11)
	sw := New(e, testConfig())
	var gids []uint64
	for c := 0; c < 10; c++ {
		loop(e, 20, func(next func()) {
			pkt := &txnwire.Packet{Instrs: []txnwire.Instr{add(0, 0, 0, 1)}}
			sw.ExecK(pkt, func(resp *txnwire.Response, err error) {
				if err != nil {
					t.Errorf("%v", err)
					return
				}
				gids = append(gids, resp.GID)
				e.After(sim.Time(e.Rand().Intn(100)), next)
			})
		})
	}
	e.Run()
	seen := make(map[uint64]bool)
	for _, g := range gids {
		if seen[g] {
			t.Fatalf("duplicate GID %d", g)
		}
		seen[g] = true
	}
	for g := uint64(0); g < uint64(len(gids)); g++ {
		if !seen[g] {
			t.Fatalf("GID %d missing (not dense)", g)
		}
	}
	if sw.ReadRegister(0, 0, 0) != 200 {
		t.Fatalf("register = %d, want 200", sw.ReadRegister(0, 0, 0))
	}
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	e := sim.NewEnv(1)
	sw := New(e, testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range register access")
		}
	}()
	sw.ReadRegister(0, 0, uint32(testConfig().SlotsPerArray))
}

func TestResetClearsState(t *testing.T) {
	e := sim.NewEnv(1)
	sw := New(e, testConfig())
	sw.WriteRegister(3, 1, 7, 99)
	sw.lock.TryLock(true, true)
	sw.nextGID = 42
	sw.Reset()
	if sw.ReadRegister(3, 1, 7) != 0 || sw.NextGID() != 0 {
		t.Fatal("Reset did not clear state")
	}
	if l, r := sw.lock.Held(); l || r {
		t.Fatal("Reset did not clear locks")
	}
}

func TestSnapshotRestore(t *testing.T) {
	e := sim.NewEnv(1)
	sw := New(e, testConfig())
	sw.WriteRegister(2, 2, 2, 5)
	snap := sw.Snapshot()
	sw.WriteRegister(2, 2, 2, 9)
	sw.Restore(snap)
	if sw.ReadRegister(2, 2, 2) != 5 {
		t.Fatal("Restore did not reinstate snapshot")
	}
}

func TestCapacity(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Capacity() < 800_000 || cfg.Capacity() > 850_000 {
		t.Fatalf("default capacity = %d, want ~820K rows as in the paper", cfg.Capacity())
	}
}

func TestResponseEchoesTxnID(t *testing.T) {
	e := sim.NewEnv(1)
	sw := New(e, testConfig())
	pkt := &txnwire.Packet{Header: txnwire.Header{TxnID: 777}, Instrs: []txnwire.Instr{read(0, 0, 0)}}
	resp := execOne(t, sw, e, pkt)
	if resp.TxnID != 777 {
		t.Fatalf("TxnID = %d, want 777", resp.TxnID)
	}
}

func TestAdmissionGapSerializesLineRate(t *testing.T) {
	cfg := testConfig()
	cfg.AdmissionGap = 100 * sim.Nanosecond
	e := sim.NewEnv(1)
	sw := New(e, cfg)
	var last sim.Time
	count := 0
	for c := 0; c < 5; c++ {
		pkt := &txnwire.Packet{Instrs: []txnwire.Instr{read(0, 0, 0)}}
		sw.ExecK(pkt, func(_ *txnwire.Response, err error) {
			if err != nil {
				t.Errorf("%v", err)
			}
			if e.Now() > last {
				last = e.Now()
			}
			count++
		})
	}
	e.Run()
	// 5 packets admitted 100ns apart; the last finishes no earlier than
	// 4 gaps + pipeline latency.
	min := 4*cfg.AdmissionGap + cfg.PipelineLatency
	if last < min {
		t.Fatalf("last completion %v < %v; line-rate spacing not enforced", last, min)
	}
}
