package txnwire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
)

// Fuzz targets for the wire codec. The decoders consume attacker-supplied
// bytes on the serving path, so every declared count and length field must
// be validated before use — these targets assert no decode panics, and
// that anything a decoder accepts re-encodes to a value-identical packet
// (no silent truncation or desynchronization).

// fuzzSeeds returns valid encodings to seed every byte-level corpus.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	pkt, err := Encode(samplePacket())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := encodeResponse(&Response{TxnID: 9, GID: 3, Recircs: 1,
		Results: []Result{{Value: -7, OK: true}}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := AppendTxnRequest(nil, sampleTxnRequest())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AppendTxnReply(nil, sampleTxnReply())
	if err != nil {
		t.Fatal(err)
	}
	// A header that declares 255 instructions but carries none: the
	// length-validation case the decoder must not trust.
	lying := make([]byte, headerSize)
	lying[10] = 255
	return [][]byte{pkt, resp, req, rep, lying, {}, {0}, bytes.Repeat([]byte{0xFF}, 64)}
}

// FuzzDecode throws raw bytes at every payload decoder.
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := Decode(data); err == nil {
			buf, err := Encode(p)
			if err != nil {
				t.Fatalf("re-encode of accepted packet failed: %v", err)
			}
			q, err := Decode(buf)
			if err != nil || !reflect.DeepEqual(p, q) {
				t.Fatalf("re-decode mismatch (err %v)", err)
			}
		}
		if r, err := decodeResponse(data); err == nil {
			if _, err := encodeResponse(r); err != nil {
				t.Fatalf("re-encode of accepted response failed: %v", err)
			}
		}
		var req TxnRequest
		if err := DecodeTxnRequestInto(&req, data); err == nil {
			buf, err := AppendTxnRequest(nil, &req)
			if err != nil {
				t.Fatalf("re-encode of accepted request failed: %v", err)
			}
			var q TxnRequest
			if err := DecodeTxnRequestInto(&q, buf); err != nil || !reflect.DeepEqual(&req, &q) {
				t.Fatalf("request re-decode mismatch (err %v)", err)
			}
		}
		var rep TxnReply
		if err := DecodeTxnReplyInto(&rep, data); err == nil {
			if _, err := AppendTxnReply(nil, &rep); err != nil {
				t.Fatalf("re-encode of accepted reply failed: %v", err)
			}
		}
	})
}

// FuzzRoundTrip builds a structurally valid packet from fuzzer-chosen
// fields and asserts the codec is lossless.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint8(7), uint8(3), uint64(42), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(0), uint8(0), uint64(0), []byte{})
	f.Add(uint8(255), uint8(255), uint64(1)<<63, bytes.Repeat([]byte{9}, 300))
	f.Fuzz(func(t *testing.T, flags, rec uint8, id uint64, raw []byte) {
		p := &Packet{Header: Header{
			IsMultipass: flags&1 != 0,
			LockLeft:    flags&2 != 0,
			LockRight:   flags&4 != 0,
			NbRecircs:   rec,
			TxnID:       id,
		}}
		q := &TxnRequest{Origin: flags, Flags: rec}
		for i := 0; i+7 <= len(raw) && len(p.Instrs) < maxInstrs; i += 7 {
			p.Instrs = append(p.Instrs, Instr{
				Op:      Op(raw[i] % uint8(numOps)),
				Stage:   raw[i+1],
				Array:   raw[i+2],
				Index:   binary.BigEndian.Uint32(raw[i+3 : i+7]),
				Operand: int64(id) - int64(raw[i]),
			})
			q.Ext = append(q.Ext, OpExt{
				KeyHi: binary.BigEndian.Uint32(raw[i+3 : i+7]),
				Home:  raw[i+1],
				Dep:   raw[i+2],
			})
		}
		q.Pkt = *p

		buf, err := Encode(p)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		back, err := Decode(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatal("packet round trip mismatch")
		}

		env, err := AppendTxnRequest(nil, q)
		if err != nil {
			t.Fatalf("append request: %v", err)
		}
		var qBack TxnRequest
		if err := DecodeTxnRequestInto(&qBack, env); err != nil {
			t.Fatalf("decode request: %v", err)
		}
		if !reflect.DeepEqual(q, &qBack) {
			t.Fatal("request round trip mismatch")
		}
	})
}

// FuzzFrameReader feeds raw bytes to the stream framer: no panic, no
// unbounded buffering, and every accepted frame must lie within limits.
func FuzzFrameReader(f *testing.F) {
	var net bytes.Buffer
	fw := NewFrameWriter(&net)
	_ = fw.WriteTxnRequest(sampleTxnRequest())
	_ = fw.WriteTxnReply(sampleTxnReply())
	_ = fw.Flush()
	f.Add(net.Bytes())
	hostile := make([]byte, 8)
	binary.BigEndian.PutUint32(hostile, 0xFFFFFFFF)
	f.Add(hostile)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		fr.SetLimit(1 << 16)
		for i := 0; i < len(data)+1; i++ {
			_, payload, err := fr.Next()
			if err != nil {
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					return
				}
				return // framing errors are terminal by contract
			}
			if len(payload) > 1<<16 {
				t.Fatalf("accepted %d-byte payload above the limit", len(payload))
			}
		}
		t.Fatal("reader yielded more frames than input bytes")
	})
}
