package pisa

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/txnwire"
)

// TestSwitchExecKZeroAlloc pins the pooled execution frames: once primed,
// a single-pass packet, a multipass lock holder and a packet recirculating
// on the waiting port behind that holder all execute without a heap
// allocation — admission re-queues, recirculations, pass boundaries, the
// response and its results included.
func TestSwitchExecKZeroAlloc(t *testing.T) {
	e := sim.NewEnv(1)
	sw := New(e, testConfig())
	single := &txnwire.Packet{Instrs: []txnwire.Instr{read(0, 0, 1), add(3, 1, 2, 5), write(7, 0, 3, 9)}}
	holder := &txnwire.Packet{
		Header: txnwire.Header{IsMultipass: true},
		Instrs: []txnwire.Instr{add(0, 0, 0, 4), add(1, 0, 0, 1), add(0, 0, 0, -4)}, // stage 0 twice: two passes
	}
	waiter := &txnwire.Packet{Instrs: []txnwire.Instr{read(0, 0, 0), read(2, 0, 0)}}
	responses := 0
	k := func(resp *txnwire.Response, err error) {
		if err != nil || len(resp.Results) == 0 {
			t.Fatalf("ExecK: %v %+v", err, resp)
		}
		responses++
	}
	cycle := func() {
		sw.ExecK(holder, k)
		sw.ExecK(waiter, k) // same instant: re-queues behind the admission gap, then finds the lock held
		sw.ExecK(single, k)
		e.Run()
	}
	cycle()
	if responses != 3 || sw.Stats.Recircs == 0 || sw.Stats.MultiPass != 1 {
		t.Fatalf("scenario is not what it claims: %d responses, stats %+v", responses, sw.Stats)
	}
	if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
		t.Fatalf("ExecK allocates %.2f objects per three packets, want 0", avg)
	}
}

// TestExecKFramesNotRecycledEarly keeps 64 packets in flight on the pooled
// ExecK — single-pass, multipass lock holders, recirculating waiters — and
// has every completion launch a successor from inside k before it reads its
// own response, so frames are reused while their neighbours are still in
// the pipeline. Each packet's results are captured inside k (the response
// is only valid there) and must equal a serial ApplyTxn replay in GID
// order: a frame recycled too early, or a response shared between packets,
// shows as a wrong result.
func TestExecKFramesNotRecycledEarly(t *testing.T) {
	cfg := testConfig()
	e := sim.NewEnv(5)
	sw := New(e, cfg)
	rng := sim.NewRNG(77)

	type outcome struct {
		pkt     *txnwire.Packet
		results []txnwire.Result
		recircs uint8
	}
	var byGID []*outcome
	newPacket := func(id uint64) *txnwire.Packet {
		pkt := &txnwire.Packet{Header: txnwire.Header{TxnID: id}}
		stage := rng.Intn(3)
		for n := 1 + rng.Intn(4); n > 0 && stage < cfg.Stages; n-- {
			pkt.Instrs = append(pkt.Instrs, txnwire.Instr{
				Op: txnwire.Op(rng.Intn(3)), Stage: uint8(stage), Array: uint8(rng.Intn(2)),
				Index: uint32(rng.Intn(2)), Operand: int64(rng.Intn(100) - 50),
			})
			stage += 1 + rng.Intn(4)
		}
		if rng.Intn(3) == 0 { // revisit the first array: a second pass under the pipeline lock
			first := pkt.Instrs[0]
			first.Op, first.Operand = txnwire.OpAdd, int64(rng.Intn(9)+1)
			pkt.Instrs = append(pkt.Instrs, first)
			pkt.Header.IsMultipass = true
		}
		return pkt
	}
	const inFlight, total = 64, 256
	launched := 0
	var launch func()
	launch = func() {
		launched++
		pkt := newPacket(uint64(launched))
		sw.ExecK(pkt, func(resp *txnwire.Response, err error) {
			if err != nil {
				t.Fatalf("ExecK: %v", err)
			}
			// The successor enters the switch (and may be admitted and
			// executed on the spot) BEFORE this response is read: it must
			// not get this packet's frame while k is still running.
			if launched < total {
				launch()
			}
			if resp.TxnID != pkt.Header.TxnID {
				t.Fatalf("response for txn %d delivered to txn %d", resp.TxnID, pkt.Header.TxnID)
			}
			for uint64(len(byGID)) <= resp.GID {
				byGID = append(byGID, nil)
			}
			if byGID[resp.GID] != nil {
				t.Fatalf("duplicate GID %d", resp.GID)
			}
			byGID[resp.GID] = &outcome{pkt, append([]txnwire.Result(nil), resp.Results...), resp.Recircs}
		})
	}
	for i := 0; i < inFlight; i++ {
		e.After(sim.Time(rng.Intn(200)), launch)
	}
	e.Run()

	if len(byGID) != total {
		t.Fatalf("%d GIDs for %d packets", len(byGID), total)
	}
	ref := New(sim.NewEnv(1), cfg)
	waited := 0
	for gid, o := range byGID {
		if o == nil {
			t.Fatalf("GID %d never reported", gid)
		}
		if want := ref.ApplyTxn(o.pkt.Instrs); !reflect.DeepEqual(o.results, want) {
			t.Fatalf("GID %d (txn %d): results %+v, serial replay %+v", gid, o.pkt.Header.TxnID, o.results, want)
		}
		if o.recircs > 0 {
			waited++
		}
	}
	if !reflect.DeepEqual(sw.Snapshot(), ref.Snapshot()) {
		t.Fatal("register state differs from the serial replay")
	}
	if sw.Stats.MultiPass == 0 || waited == 0 {
		t.Fatalf("scenario too tame: %d multipass, %d packets waited", sw.Stats.MultiPass, waited)
	}
}
