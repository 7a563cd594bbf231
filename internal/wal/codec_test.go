package wal

import (
	"reflect"
	"testing"

	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/txnwire"
)

func sampleLog() *Log {
	l := NewLog(3)
	l.SetClock(func() uint64 { return 12345 }) // nonzero LSNs round-trip too
	r1 := l.AppendSwitchIntent(7, []txnwire.Instr{
		addInstr(0, 2),
		{Op: txnwire.OpCondAddGE0, Stage: 1, Array: 2, Index: 9, Operand: -5},
	})
	l.Complete(r1, &txnwire.Response{GID: 0, Results: []txnwire.Result{{Value: 2, OK: true}, {Value: 0, OK: false}}})
	l.AppendSwitchIntent(8, []txnwire.Instr{addInstr(1, 3)}) // in-flight: no GID
	l.AppendCold(9, []ColdWrite{{Table: 1, Key: 5, Field: 0, Value: 42}, {Table: 2, Key: 1, Field: 3, Value: -7}})
	return l
}

func TestCodecRoundTrip(t *testing.T) {
	l := sampleLog()
	got, torn, err := UnmarshalLog(l.NodeID(), l.Marshal())
	if err != nil || torn {
		t.Fatalf("UnmarshalLog: torn=%v err=%v", torn, err)
	}
	if !reflect.DeepEqual(got.SwitchRecords(), l.SwitchRecords()) {
		t.Fatalf("switch records differ:\n got %+v\nwant %+v", got.SwitchRecords(), l.SwitchRecords())
	}
	if !reflect.DeepEqual(got.ColdRecords(), l.ColdRecords()) {
		t.Fatalf("cold records differ:\n got %+v\nwant %+v", got.ColdRecords(), l.ColdRecords())
	}
}

func TestCodecEmptyLog(t *testing.T) {
	l := NewLog(0)
	buf := l.Marshal()
	if len(buf) != 0 {
		t.Fatalf("empty log marshaled to %d bytes", len(buf))
	}
	got, torn, err := UnmarshalLog(0, buf)
	if err != nil || torn {
		t.Fatalf("torn=%v err=%v", torn, err)
	}
	if len(got.SwitchRecords()) != 0 || len(got.ColdRecords()) != 0 {
		t.Fatal("empty image decoded records")
	}
	// An empty log must also recover cleanly: nothing to replay.
	baseline := pisa.New(sim.NewEnv(0), swConfig()).Snapshot()
	sw := pisa.New(sim.NewEnv(0), swConfig())
	n, next, rerr := recoverSwitch([]*Log{got}, freshSwitch(baseline), sw)
	if rerr != nil || n != 0 || next != 0 {
		t.Fatalf("empty-log recovery: n=%d next=%d err=%v", n, next, rerr)
	}
}

// TestCodecTornFinalRecord truncates the image at every possible byte
// boundary inside the last frame: the tail must be dropped silently (the
// torn record never committed) and the intact prefix must replay.
func TestCodecTornFinalRecord(t *testing.T) {
	l := sampleLog()
	full := l.Marshal()
	// Find where the final frame starts by re-marshaling without it.
	prefix := NewLog(3)
	prefix.switches = l.switches
	prefixLen := len(prefix.Marshal())
	for cut := prefixLen + 1; cut < len(full); cut++ {
		got, torn, err := UnmarshalLog(3, full[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if !torn {
			t.Fatalf("cut at %d not reported torn", cut)
		}
		if len(got.ColdRecords()) != 0 {
			t.Fatalf("cut at %d decoded the torn cold record", cut)
		}
		if !reflect.DeepEqual(got.SwitchRecords(), l.SwitchRecords()) {
			t.Fatalf("cut at %d lost intact records", cut)
		}
	}
}

func TestCodecRejectsCorruptFrame(t *testing.T) {
	l := NewLog(0)
	l.AppendSwitchIntent(1, []txnwire.Instr{addInstr(0, 1)})
	buf := l.Marshal()
	buf[4] = 99 // complete frame, unknown kind byte
	if _, _, err := UnmarshalLog(0, buf); err == nil {
		t.Fatal("corrupt kind byte accepted")
	}
	buf[4] = kindSwitch
	buf[len(buf)-17] = 200 // invalid opcode inside a complete frame (15B instr + u16 result count follow)
	if _, _, err := UnmarshalLog(0, buf); err == nil {
		t.Fatal("invalid opcode accepted")
	}
}

// TestRecoveryAllResponsesLostWideWindow loses every response of a batch
// wider than the 2-record windows the directed tests use: five GID-less
// commutative adds must gap-fit (here: fill an entirely empty GID space)
// and reproduce the exact sums.
func TestRecoveryAllResponsesLostWideWindow(t *testing.T) {
	baseline := pisa.New(sim.NewEnv(0), swConfig()).Snapshot()
	logs := []*Log{NewLog(0), NewLog(1)}
	deltas := []int64{2, 3, 5, 7, 11}
	for i, d := range deltas {
		logs[i%2].AppendSwitchIntent(uint64(i), []txnwire.Instr{addInstr(uint32(i%2), d)})
	}
	sw := pisa.New(sim.NewEnv(0), swConfig())
	n, next, err := recoverSwitch(logs, freshSwitch(baseline), sw)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(deltas) || next != uint64(len(deltas)) {
		t.Fatalf("replayed=%d next=%d, want %d", n, next, len(deltas))
	}
	if x, y := sw.ReadRegister(0, 0, 0), sw.ReadRegister(0, 0, 1); x != 2+5+11 || y != 3+7 {
		t.Fatalf("recovered sums %d/%d, want 18/10", x, y)
	}
}

// FuzzLogCodec exercises the record codec on arbitrary bytes: decoding
// must never panic, and anything that decodes cleanly must survive a
// marshal/unmarshal round trip unchanged.
func FuzzLogCodec(f *testing.F) {
	f.Add(sampleLog().Marshal())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, kindCold})
	f.Add(sampleLog().Marshal()[:7])
	f.Fuzz(func(t *testing.T, data []byte) {
		l, torn, err := UnmarshalLog(0, data)
		if err != nil || torn {
			return
		}
		again, torn2, err2 := UnmarshalLog(0, l.Marshal())
		if err2 != nil || torn2 {
			t.Fatalf("re-decode failed: torn=%v err=%v", torn2, err2)
		}
		if !reflect.DeepEqual(again.SwitchRecords(), l.SwitchRecords()) ||
			!reflect.DeepEqual(again.ColdRecords(), l.ColdRecords()) {
			t.Fatal("round trip not stable")
		}
	})
}
