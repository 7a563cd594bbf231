package pisa

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/txnwire"
)

// Tests for the packet-metadata opcodes (accumulator + ok-flag) that
// implement read-dependent and chained-conditional writes (Table 1).

func TestReadClearAndAddAcc(t *testing.T) {
	e := sim.NewEnv(1)
	sw := New(e, testConfig())
	sw.WriteRegister(0, 0, 0, 30) // savings(a)
	sw.WriteRegister(1, 0, 0, 12) // checking(a)
	// Amalgamate: drain both accounts of A into checking(b) at stage 2.
	pkt := &txnwire.Packet{Instrs: []txnwire.Instr{
		{Op: txnwire.OpReadClear, Stage: 0, Array: 0, Index: 0},
		{Op: txnwire.OpReadClear, Stage: 1, Array: 0, Index: 0},
		{Op: txnwire.OpAddAcc, Stage: 2, Array: 0, Index: 0},
	}}
	resp := execOne(t, sw, e, pkt)
	if resp.Results[0].Value != 30 || resp.Results[1].Value != 12 {
		t.Fatalf("ReadClear results = %+v", resp.Results)
	}
	if sw.ReadRegister(0, 0, 0) != 0 || sw.ReadRegister(1, 0, 0) != 0 {
		t.Fatal("ReadClear did not zero the registers")
	}
	if got := sw.ReadRegister(2, 0, 0); got != 42 {
		t.Fatalf("AddAcc landed %d, want 42", got)
	}
}

func TestAddIfOKChainsWithCondAdd(t *testing.T) {
	e := sim.NewEnv(1)
	sw := New(e, testConfig())
	sw.WriteRegister(0, 0, 0, 100) // debit account
	// Successful transfer: debit 40, credit 40.
	ok := &txnwire.Packet{Instrs: []txnwire.Instr{
		{Op: txnwire.OpCondAddGE0, Stage: 0, Array: 0, Index: 0, Operand: -40},
		{Op: txnwire.OpAddIfOK, Stage: 1, Array: 0, Index: 0, Operand: 40},
	}}
	resp := execOne(t, sw, e, ok)
	if !resp.Results[0].OK || !resp.Results[1].OK {
		t.Fatalf("transfer failed: %+v", resp.Results)
	}
	if sw.ReadRegister(0, 0, 0) != 60 || sw.ReadRegister(1, 0, 0) != 40 {
		t.Fatal("transfer amounts wrong")
	}
	// Failing transfer: debit 100 from 60 -> both legs refused.
	bad := &txnwire.Packet{Instrs: []txnwire.Instr{
		{Op: txnwire.OpCondAddGE0, Stage: 0, Array: 0, Index: 0, Operand: -100},
		{Op: txnwire.OpAddIfOK, Stage: 1, Array: 0, Index: 0, Operand: 100},
	}}
	resp2 := execOne(t, sw, e, bad)
	if resp2.Results[0].OK || resp2.Results[1].OK {
		t.Fatalf("failing transfer applied: %+v", resp2.Results)
	}
	if sw.ReadRegister(0, 0, 0) != 60 || sw.ReadRegister(1, 0, 0) != 40 {
		t.Fatal("failing transfer mutated state — money created or destroyed")
	}
}

func TestMetadataSurvivesRecirculation(t *testing.T) {
	// The accumulator is packet metadata and must persist across passes:
	// ReadClear at stage 1 then AddAcc at stage 0 forces a second pass.
	e := sim.NewEnv(1)
	sw := New(e, testConfig())
	sw.WriteRegister(1, 0, 0, 7)
	pkt := &txnwire.Packet{
		Header: txnwire.Header{IsMultipass: true},
		Instrs: []txnwire.Instr{
			{Op: txnwire.OpReadClear, Stage: 1, Array: 0, Index: 0},
			{Op: txnwire.OpAddAcc, Stage: 0, Array: 0, Index: 0},
		},
	}
	resp := execOne(t, sw, e, pkt)
	if resp.Recircs != 0 && resp.Results[1].Value != 7 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if got := sw.ReadRegister(0, 0, 0); got != 7 {
		t.Fatalf("AddAcc after recirculation landed %d, want 7", got)
	}
}

// TestApplyTxnMatchesExec: replaying a transaction through the control
// plane (recovery path) must produce exactly the data-plane results.
func TestApplyTxnMatchesExec(t *testing.T) {
	f := func(seed uint16) bool {
		cfg := testConfig()
		rng := sim.NewRNG(uint64(seed))
		n := rng.Intn(5) + 1
		instrs := make([]txnwire.Instr, n)
		for i := range instrs {
			instrs[i] = txnwire.Instr{
				Op:      txnwire.Op(rng.Intn(8)),
				Stage:   uint8(i % cfg.Stages),
				Array:   0,
				Index:   uint32(rng.Intn(4)),
				Operand: int64(rng.Intn(40) - 20),
			}
		}
		init := make([]int64, 8)
		for i := range init {
			init[i] = int64(rng.Intn(50))
		}
		seed64 := uint64(seed)

		// Data plane.
		e := sim.NewEnv(seed64)
		live := New(e, cfg)
		for i, v := range init {
			live.WriteRegister(uint8(i%cfg.Stages), 0, uint32(i/cfg.Stages), v)
		}
		pkt := &txnwire.Packet{Header: txnwire.Header{IsMultipass: true}, Instrs: instrs}
		var resp *txnwire.Response
		var err error
		e.Spawn("c", func(p *sim.Proc) { resp, err = live.Exec(p, pkt) })
		e.Run()
		if err != nil {
			return false
		}

		// Control plane.
		ref := New(sim.NewEnv(0), cfg)
		for i, v := range init {
			ref.WriteRegister(uint8(i%cfg.Stages), 0, uint32(i/cfg.Stages), v)
		}
		got := ref.ApplyTxn(instrs)
		if len(got) != len(resp.Results) {
			return false
		}
		for i := range got {
			if got[i] != resp.Results[i] {
				return false
			}
		}
		// And identical final state.
		a, b := live.Snapshot(), ref.Snapshot()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
