package txnwire

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func samplePacket() *Packet {
	return &Packet{
		Header: Header{IsMultipass: true, LockLeft: true, NbRecircs: 3, TxnID: 0xDEADBEEF},
		Instrs: []Instr{
			{Op: OpRead, Stage: 0, Array: 1, Index: 7},
			{Op: OpAdd, Stage: 2, Array: 0, Index: 42, Operand: -5},
			{Op: OpCondAddGE0, Stage: 5, Array: 3, Index: 1 << 20, Operand: math.MaxInt64},
		},
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := samplePacket()
	buf, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", p, q)
	}
}

func TestEmptyPacketRoundTrip(t *testing.T) {
	p := &Packet{Header: Header{TxnID: 1}}
	buf, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Header.TxnID != 1 || len(q.Instrs) != 0 {
		t.Fatalf("got %+v", q)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	r := &Response{
		TxnID:   9,
		GID:     123456789,
		Recircs: 7,
		Results: []Result{{Value: -1, OK: true}, {Value: math.MinInt64, OK: false}},
	}
	buf, err := encodeResponse(r)
	if err != nil {
		t.Fatal(err)
	}
	q, err := decodeResponse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, q) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", r, q)
	}
}

func TestTooManyInstrs(t *testing.T) {
	p := &Packet{Instrs: make([]Instr, 256)}
	if _, err := Encode(p); err != ErrTooManyInstrs {
		t.Fatalf("err = %v, want ErrTooManyInstrs", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	p := samplePacket()
	buf, _ := Encode(p)
	for cut := 0; cut < len(buf); cut++ {
		if _, err := Decode(buf[:cut]); err == nil {
			// A truncation that still parses must decode fewer
			// instructions than the original declared; declared count
			// check makes this impossible, so any success is a bug.
			t.Fatalf("Decode accepted truncated packet of %d/%d bytes", cut, len(buf))
		}
	}
}

func TestDecodeBadOpcode(t *testing.T) {
	p := &Packet{Instrs: []Instr{{Op: OpRead}}}
	buf, _ := Encode(p)
	buf[11] = 0xFF // first instruction's opcode byte
	if _, err := Decode(buf); err != ErrBadOpcode {
		t.Fatalf("err = %v, want ErrBadOpcode", err)
	}
}

func TestEncodeBadOpcode(t *testing.T) {
	p := &Packet{Instrs: []Instr{{Op: Op(200)}}}
	if _, err := Encode(p); err != ErrBadOpcode {
		t.Fatalf("err = %v, want ErrBadOpcode", err)
	}
}

func TestOpStrings(t *testing.T) {
	for op := Op(0); op.Valid(); op++ {
		if op.String() == "" {
			t.Fatalf("op %d has empty mnemonic", op)
		}
	}
}

// TestRoundTripProperty fuzzes packets through the codec.
func TestRoundTripProperty(t *testing.T) {
	f := func(multi, ll, lr bool, rec uint8, id uint64, ops []uint8, idxs []uint32, operands []int64) bool {
		n := len(ops)
		if n > 40 {
			n = 40
		}
		p := &Packet{Header: Header{IsMultipass: multi, LockLeft: ll, LockRight: lr, NbRecircs: rec, TxnID: id}}
		for i := 0; i < n; i++ {
			var idx uint32
			if i < len(idxs) {
				idx = idxs[i]
			}
			var opr int64
			if i < len(operands) {
				opr = operands[i]
			}
			p.Instrs = append(p.Instrs, Instr{
				Op:      Op(ops[i] % uint8(numOps)),
				Stage:   ops[i] % 12,
				Array:   ops[i] % 4,
				Index:   idx,
				Operand: opr,
			})
		}
		buf, err := Encode(p)
		if err != nil {
			return false
		}
		q, err := Decode(buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestInstrString(t *testing.T) {
	in := Instr{Op: OpAdd, Stage: 2, Array: 1, Index: 9, Operand: -3}
	if got := in.String(); got != "ADD s2/a1[9] -3" {
		t.Fatalf("String = %q", got)
	}
}

// encodeResponse serializes a response packet into a fresh buffer.
func encodeResponse(r *Response) ([]byte, error) {
	return AppendResponse(make([]byte, 0, respHdrSize+resultSize*len(r.Results)), r)
}

// decodeResponse parses a response packet. Trailing bytes are ignored.
func decodeResponse(buf []byte) (*Response, error) {
	r := new(Response)
	if _, err := DecodeResponseInto(r, buf); err != nil {
		return nil, err
	}
	return r, nil
}
