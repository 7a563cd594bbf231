package wal

import (
	"encoding/binary"
	"fmt"

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
)

// Marshal serializes the log — switch records first, then cold records,
// each in append order — into the framed byte format UnmarshalLog reads.
func (l *Log) Marshal() []byte {
	var buf []byte
	for _, r := range l.switchRecs {
		buf = appendSwitchRecord(buf, r)
	}
	for _, r := range l.coldRecs {
		buf = appendColdRecord(buf, r)
	}
	return buf
}

func appendSwitchRecord(buf []byte, r *SwitchRecord) []byte {
	n := 1 + 8 + 1 + 8 + 2 + 15*len(r.Instrs) + 2 + 9*len(r.Results)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, kindSwitch)
	buf = binary.BigEndian.AppendUint64(buf, r.TxnID)
	var flags byte
	if r.HasGID {
		flags = 1
	}
	buf = append(buf, flags)
	buf = binary.BigEndian.AppendUint64(buf, r.GID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Instrs)))
	for _, in := range r.Instrs {
		buf = append(buf, byte(in.Op), in.Stage, in.Array)
		buf = binary.BigEndian.AppendUint32(buf, in.Index)
		buf = binary.BigEndian.AppendUint64(buf, uint64(in.Operand))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Results)))
	for _, res := range r.Results {
		buf = binary.BigEndian.AppendUint64(buf, uint64(res.Value))
		if res.OK {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

func appendColdRecord(buf []byte, r *ColdRecord) []byte {
	n := 1 + 8 + 8 + 1 + 2 + 18*len(r.Writes)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, kindCold)
	buf = binary.BigEndian.AppendUint64(buf, r.TxnID)
	buf = binary.BigEndian.AppendUint64(buf, r.LSN)
	if r.Committed {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Writes)))
	for _, w := range r.Writes {
		buf = append(buf, byte(w.Table))
		buf = binary.BigEndian.AppendUint64(buf, uint64(w.Key))
		buf = append(buf, byte(w.Field))
		buf = binary.BigEndian.AppendUint64(buf, uint64(w.Value))
	}
	return buf
}

// UnmarshalLog parses a framed log image back into a Log for nodeID. A
// truncated final frame (torn write at the crash) is dropped and reported
// via torn; malformed bytes inside a complete frame are an error.
func UnmarshalLog(nodeID int, data []byte) (l *Log, torn bool, err error) {
	l = NewLog(nodeID)
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
		if err := l.decodeRecord(payload); err != nil {
			return nil, false, fmt.Errorf("wal: record %d: %w", i, err)
		}
	}
	return l, false, nil
}

func (l *Log) decodeRecord(p []byte) error {
	if len(p) < 1 {
		return fmt.Errorf("empty payload")
	}
	kind := p[0]
	p = p[1:]
	switch kind {
	case kindSwitch:
		if len(p) < 8+1+8+2 {
			return fmt.Errorf("switch record header truncated")
		}
		nInstr := int(binary.BigEndian.Uint16(p[17:]))
		if nInstr > maxCount || len(p) < 19+15*nInstr {
			return fmt.Errorf("instruction list truncated")
		}
		// A record that fails further down stays appended: UnmarshalLog
		// drops the whole log on error.
		rec := l.newSwitchRecord(binary.BigEndian.Uint64(p), nInstr)
		rec.HasGID = p[8]&1 != 0
		rec.GID = binary.BigEndian.Uint64(p[9:])
		p = p[19:]
		for i := range rec.Instrs {
			in := &rec.Instrs[i]
			in.Op = txnwire.Op(p[0])
			if !in.Op.Valid() {
				return fmt.Errorf("invalid opcode %d", p[0])
			}
			in.Stage, in.Array = p[1], p[2]
			in.Index = binary.BigEndian.Uint32(p[3:])
			in.Operand = int64(binary.BigEndian.Uint64(p[7:]))
			p = p[15:]
		}
		if len(p) < 2 {
			return fmt.Errorf("result count truncated")
		}
		nRes := int(binary.BigEndian.Uint16(p))
		p = p[2:]
		if nRes > maxCount || len(p) != 9*nRes {
			return fmt.Errorf("result list length mismatch")
		}
		if nRes > 0 {
			rec.Results = rec.room
		}
		for ; nRes > 0; nRes-- {
			rec.Results = append(rec.Results, txnwire.Result{Value: int64(binary.BigEndian.Uint64(p)), OK: p[8] != 0})
			p = p[9:]
		}
	case kindCold:
		if len(p) < 8+8+1+2 {
			return fmt.Errorf("cold record header truncated")
		}
		nW := int(binary.BigEndian.Uint16(p[17:]))
		if nW > maxCount || len(p) != 19+18*nW {
			return fmt.Errorf("write list length mismatch")
		}
		rec := l.newColdRecord(binary.BigEndian.Uint64(p), nW)
		rec.LSN = binary.BigEndian.Uint64(p[8:])
		rec.Committed = p[16] != 0
		p = p[19:]
		for i := range rec.Writes {
			w := &rec.Writes[i]
			w.Table = store.TableID(p[0])
			w.Key = store.Key(binary.BigEndian.Uint64(p[1:]))
			w.Field = int(p[9])
			w.Value = int64(binary.BigEndian.Uint64(p[10:]))
			p = p[18:]
		}
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	return nil
}
