package wal

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/store"
	"repro/internal/txnwire"
)

// On-disk record framing. Every record is a length-prefixed frame:
//
//	u32  payload length (big-endian, like the txnwire packet codec)
//	u8   kind (kindSwitch | kindCold)
//	...  kind-specific payload
//
// A crash can tear the final frame mid-write; UnmarshalLog drops a
// truncated tail silently (that record never committed — for switch
// records the intent must be fully durable BEFORE the packet is sent, so
// a torn intent means the packet was never sent either). Corruption
// inside a complete frame is a hard error: the length prefix made it to
// disk intact, so the payload should have too.
const (
	kindSwitch = 1
	kindCold   = 2

	// maxCount bounds per-record element counts so a corrupt length field
	// cannot drive a multi-gigabyte allocation during decode.
	maxCount = 1 << 16

	// Byte offsets inside a switch frame (from the length prefix), and the
	// encoded sizes of its list elements and of a redo write.
	offFlags  = 4 + 1 + 8
	offInstrs = offFlags + 1 + 8 + 2
	instrLen  = 15
	resultLen = 9
	writeLen  = 18
)

// Marshal serializes the log — switch records first, then cold records,
// each in append order — into the framed byte format UnmarshalLog reads.
// The streams already hold those frames; Marshal only drops the result
// room of intents that were never completed.
func (l *Log) Marshal() []byte {
	var buf []byte
	for _, s := range []stream{l.switches, l.colds} {
		s.each(func(f []byte) { buf = append(buf, f...) })
	}
	return buf
}

// each calls fn with every frame of s in append order.
func (s stream) each(fn func(frame []byte)) {
	for _, c := range s {
		for len(c) > 0 {
			n := 4 + int(binary.BigEndian.Uint32(c))
			fn(c[:n])
			c = c[n+room(c):]
		}
	}
}

// room is the result space a switch frame reserves beyond its length
// prefix: one result per instruction it has not been completed with.
func room(f []byte) int {
	if f[4] != kindSwitch {
		return 0
	}
	k := int(binary.BigEndian.Uint16(f[offInstrs-2:]))
	return resultLen * max(k-int(binary.BigEndian.Uint16(f[offInstrs+instrLen*k:])), 0)
}

func switchPayloadLen(instrs, results int) int {
	return offInstrs - 4 + instrLen*instrs + 2 + resultLen*results
}

func appendSwitchRecord(buf []byte, r *SwitchRecord) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(switchPayloadLen(len(r.Instrs), len(r.Results))))
	buf = append(buf, kindSwitch)
	buf = binary.BigEndian.AppendUint64(buf, r.TxnID)
	buf = appendGID(buf, r.HasGID, r.GID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Instrs)))
	for _, in := range r.Instrs {
		buf = append(buf, byte(in.Op), in.Stage, in.Array)
		buf = binary.BigEndian.AppendUint32(buf, in.Index)
		buf = binary.BigEndian.AppendUint64(buf, uint64(in.Operand))
	}
	return appendResults(buf, r.Results)
}

func appendGID(buf []byte, has bool, gid uint64) []byte {
	return binary.BigEndian.AppendUint64(append(buf, boolByte(has)), gid)
}

func appendResults(buf []byte, res []txnwire.Result) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(res)))
	for _, r := range res {
		buf = append(binary.BigEndian.AppendUint64(buf, uint64(r.Value)), boolByte(r.OK))
	}
	return buf
}

// Complete back-fills the switch response into the intent's frame: the
// flag, the GID and the results are written over the frame's tail and the
// room reserved behind it (appending to a zero-length window of the chunk
// writes in place), and the length prefix grows to cover them.
func (l *Log) Complete(at Intent, resp *txnwire.Response) {
	f := l.switches[at.chunk][at.off:]
	k := int(binary.BigEndian.Uint16(f[offInstrs-2:]))
	if len(resp.Results) > k {
		panic(fmt.Sprintf("wal: %d results for an intent of %d instructions", len(resp.Results), k))
	}
	appendGID(f[offFlags:offFlags], true, resp.GID)
	appendResults(f[offInstrs+instrLen*k:][:0], resp.Results)
	binary.BigEndian.PutUint32(f, uint32(switchPayloadLen(k, len(resp.Results))))
}

func coldPayloadLen(writes int) int { return 1 + 8 + 8 + 1 + 2 + writeLen*writes }

func appendColdRecord(buf []byte, r *ColdRecord) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(coldPayloadLen(len(r.Writes))))
	buf = append(buf, kindCold)
	buf = binary.BigEndian.AppendUint64(buf, r.TxnID)
	buf = binary.BigEndian.AppendUint64(buf, r.LSN)
	buf = append(buf, boolByte(r.Committed))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Writes)))
	for _, w := range r.Writes {
		buf = append(buf, byte(w.Table))
		buf = binary.BigEndian.AppendUint64(buf, uint64(w.Key))
		buf = append(buf, byte(w.Field))
		buf = binary.BigEndian.AppendUint64(buf, uint64(w.Value))
	}
	return buf
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// UnmarshalLog parses a framed log image back into a Log for nodeID. A
// truncated final frame (torn write at the crash) is dropped and reported
// via torn; malformed bytes inside a complete frame are an error.
func UnmarshalLog(nodeID int, data []byte) (l *Log, torn bool, err error) {
	l = NewLog(nodeID)
	sr, cr := new(SwitchRecord), new(ColdRecord)
	for i := 0; len(data) > 0; i++ {
		if len(data) < 4 {
			return l, true, nil
		}
		n := binary.BigEndian.Uint32(data)
		if uint64(len(data)-4) < uint64(n) {
			return l, true, nil
		}
		payload := data[4 : 4+n]
		data = data[4+n:]
		switch {
		case len(payload) == 0:
			err = fmt.Errorf("empty payload")
		case payload[0] == kindSwitch:
			if err = decodeSwitch(payload[1:], sr); err == nil {
				l.putSwitch(sr)
			}
		case payload[0] == kindCold:
			if err = decodeCold(payload[1:], cr); err == nil {
				l.putCold(cr)
			}
		default:
			err = fmt.Errorf("unknown record kind %d", payload[0])
		}
		if err != nil {
			return nil, false, fmt.Errorf("wal: record %d: %w", i, err)
		}
	}
	return l, false, nil
}

// decodeSwitch parses a switch record's payload (after the kind byte)
// into r, reusing r's lists. Empty lists of a fresh r stay nil.
func decodeSwitch(p []byte, r *SwitchRecord) error {
	if len(p) < 8+1+8+2 {
		return fmt.Errorf("switch record header truncated")
	}
	nInstr := int(binary.BigEndian.Uint16(p[17:]))
	if nInstr > maxCount || len(p) < 19+instrLen*nInstr {
		return fmt.Errorf("instruction list truncated")
	}
	r.TxnID = binary.BigEndian.Uint64(p)
	r.HasGID = p[8]&1 != 0
	r.GID = binary.BigEndian.Uint64(p[9:])
	p = p[19:]
	r.Instrs = slices.Grow(r.Instrs[:0], nInstr)
	for ; nInstr > 0; nInstr-- {
		in := txnwire.Instr{Op: txnwire.Op(p[0]), Stage: p[1], Array: p[2], Index: binary.BigEndian.Uint32(p[3:]), Operand: int64(binary.BigEndian.Uint64(p[7:]))}
		if !in.Op.Valid() {
			return fmt.Errorf("invalid opcode %d", p[0])
		}
		r.Instrs = append(r.Instrs, in)
		p = p[instrLen:]
	}
	if len(p) < 2 {
		return fmt.Errorf("result count truncated")
	}
	nRes := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if nRes > maxCount || len(p) != resultLen*nRes {
		return fmt.Errorf("result list length mismatch")
	}
	r.Results = slices.Grow(r.Results[:0], nRes)
	for ; nRes > 0; nRes-- {
		r.Results = append(r.Results, txnwire.Result{Value: int64(binary.BigEndian.Uint64(p)), OK: p[8] != 0})
		p = p[resultLen:]
	}
	return nil
}

// decodeCold parses a cold record's payload (after the kind byte) into r,
// reusing r's write list.
func decodeCold(p []byte, r *ColdRecord) error {
	if len(p) < 8+8+1+2 {
		return fmt.Errorf("cold record header truncated")
	}
	nW := int(binary.BigEndian.Uint16(p[17:]))
	if nW > maxCount || len(p) != 19+writeLen*nW {
		return fmt.Errorf("write list length mismatch")
	}
	r.TxnID = binary.BigEndian.Uint64(p)
	r.LSN = binary.BigEndian.Uint64(p[8:])
	r.Committed = p[16] != 0
	p = p[19:]
	r.Writes = slices.Grow(r.Writes[:0], nW)
	for ; nW > 0; nW-- {
		r.Writes = append(r.Writes, ColdWrite{Table: store.TableID(p[0]), Key: store.Key(binary.BigEndian.Uint64(p[1:])),
			Field: int(p[9]), Value: int64(binary.BigEndian.Uint64(p[10:]))})
		p = p[writeLen:]
	}
	return nil
}
