package txnwire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

func sampleTxnRequest() *TxnRequest {
	return &TxnRequest{
		Origin: 3,
		Pkt: Packet{
			Header: Header{TxnID: 77},
			Instrs: []Instr{
				{Op: OpRead, Stage: 1, Array: 0, Index: 0xCAFE, Operand: 0},
				{Op: OpAdd, Stage: 1, Array: 2, Index: 7, Operand: -12},
				{Op: OpAddIfOK, Stage: 4, Array: 1, Index: 1 << 30, Operand: 99},
			},
		},
		Ext: []OpExt{
			{KeyHi: 0x000F0000, Home: 2, Dep: DepNone},
			{KeyHi: 0, Home: 0, Dep: 0},
			{KeyHi: 1, Home: 7, Dep: 1},
		},
	}
}

func sampleTxnReply() *TxnReply {
	return &TxnReply{
		Status: StatusCommitted,
		Class:  1,
		Resp:   Response{TxnID: 77, GID: 1234, Recircs: 2},
	}
}

func TestTxnRequestRoundTrip(t *testing.T) {
	q := sampleTxnRequest()
	buf, err := AppendTxnRequest(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	var got TxnRequest
	if err := DecodeTxnRequestInto(&got, buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q, &got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", q, &got)
	}
	// Strictness: one trailing byte must be rejected.
	if err := DecodeTxnRequestInto(&got, append(buf, 0)); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing byte: err = %v, want ErrTrailing", err)
	}
	// Truncation anywhere must error, never panic.
	for cut := 0; cut < len(buf); cut++ {
		if err := DecodeTxnRequestInto(&got, buf[:cut]); err == nil {
			t.Fatalf("accepted truncated request of %d/%d bytes", cut, len(buf))
		}
	}
}

func TestTxnRequestExtMismatch(t *testing.T) {
	q := sampleTxnRequest()
	q.Ext = q.Ext[:2]
	if _, err := AppendTxnRequest(nil, q); !errors.Is(err, ErrExtMismatch) {
		t.Fatalf("err = %v, want ErrExtMismatch", err)
	}
}

func TestTxnReplyRoundTrip(t *testing.T) {
	r := sampleTxnReply()
	buf, err := AppendTxnReply(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	var got TxnReply
	if err := DecodeTxnReplyInto(&got, buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, &got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", r, &got)
	}
	if err := DecodeTxnReplyInto(&got, append(buf, 0)); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing byte: err = %v, want ErrTrailing", err)
	}
}

// TestFrameRoundTrip writes a mixed batch of frames through a FrameWriter
// and reads them back.
func TestFrameRoundTrip(t *testing.T) {
	var net bytes.Buffer
	fw := NewFrameWriter(&net)
	q := sampleTxnRequest()
	rep := sampleTxnReply()
	p := &Packet{Header: Header{TxnID: 5}, Instrs: []Instr{{Op: OpWrite, Operand: 8}}}
	if err := fw.WriteTxnRequest(q); err != nil {
		t.Fatal(err)
	}
	if err := writePacket(fw, p); err != nil {
		t.Fatal(err)
	}
	if err := fw.WriteTxnReply(rep); err != nil {
		t.Fatal(err)
	}
	if err := writeResponse(fw, &rep.Resp); err != nil {
		t.Fatal(err)
	}
	if net.Len() != 0 {
		t.Fatal("frames written before Flush")
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}

	fr := NewFrameReader(&net)
	ft, payload, err := fr.Next()
	if err != nil || ft != FrameTxnReq {
		t.Fatalf("frame 1: type %d err %v", ft, err)
	}
	var gotReq TxnRequest
	if err := DecodeTxnRequestInto(&gotReq, payload); err != nil || !reflect.DeepEqual(q, &gotReq) {
		t.Fatalf("request mismatch (err %v)", err)
	}
	ft, payload, err = fr.Next()
	if err != nil || ft != FramePacket {
		t.Fatalf("frame 2: type %d err %v", ft, err)
	}
	var gotPkt Packet
	if _, err := DecodePacketInto(&gotPkt, payload); err != nil || !reflect.DeepEqual(p, &gotPkt) {
		t.Fatalf("packet mismatch (err %v)", err)
	}
	ft, payload, err = fr.Next()
	if err != nil || ft != FrameTxnReply {
		t.Fatalf("frame 3: type %d err %v", ft, err)
	}
	var gotRep TxnReply
	if err := DecodeTxnReplyInto(&gotRep, payload); err != nil || !reflect.DeepEqual(rep, &gotRep) {
		t.Fatalf("reply mismatch (err %v)", err)
	}
	if ft, _, err = fr.Next(); err != nil || ft != FrameResponse {
		t.Fatalf("frame 4: type %d err %v", ft, err)
	}
	if _, _, err = fr.Next(); err != io.EOF {
		t.Fatalf("end of stream: err = %v, want io.EOF", err)
	}
}

// TestFrameTornReads drives the reader one byte at a time and through
// random chunk splits — frames arriving across many TCP reads must
// reassemble exactly.
func TestFrameTornReads(t *testing.T) {
	var net bytes.Buffer
	fw := NewFrameWriter(&net)
	want := make([]*TxnRequest, 50)
	for i := range want {
		q := sampleTxnRequest()
		q.Pkt.Header.TxnID = uint64(i)
		q.Ext[0].KeyHi = uint32(i * 7)
		want[i] = q
		if err := fw.WriteTxnRequest(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	stream := net.Bytes()

	readers := map[string]io.Reader{
		"one-byte": iotest.OneByteReader(bytes.NewReader(stream)),
		"random-chunks": io.MultiReader(func() []io.Reader {
			rng := rand.New(rand.NewSource(11))
			var parts []io.Reader
			for off := 0; off < len(stream); {
				n := 1 + rng.Intn(23)
				if off+n > len(stream) {
					n = len(stream) - off
				}
				parts = append(parts, bytes.NewReader(stream[off:off+n]))
				off += n
			}
			return parts
		}()...),
	}
	for name, r := range readers {
		fr := NewFrameReader(r)
		var got TxnRequest
		for i := range want {
			ft, payload, err := fr.Next()
			if err != nil || ft != FrameTxnReq {
				t.Fatalf("%s frame %d: type %d err %v", name, i, ft, err)
			}
			if err := DecodeTxnRequestInto(&got, payload); err != nil {
				t.Fatalf("%s frame %d: %v", name, i, err)
			}
			if !reflect.DeepEqual(want[i], &got) {
				t.Fatalf("%s frame %d mismatch", name, i)
			}
		}
		if _, _, err := fr.Next(); err != io.EOF {
			t.Fatalf("%s: end err = %v, want io.EOF", name, err)
		}
	}
}

// TestFrameMidFrameEOF: a stream cut inside a frame is a hard
// ErrUnexpectedEOF, not a silent success.
func TestFrameMidFrameEOF(t *testing.T) {
	var net bytes.Buffer
	fw := NewFrameWriter(&net)
	if err := fw.WriteTxnRequest(sampleTxnRequest()); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	stream := net.Bytes()
	for cut := 1; cut < len(stream); cut++ {
		fr := NewFrameReader(bytes.NewReader(stream[:cut]))
		if _, _, err := fr.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestFrameOversizeRejected: a frame above the limit is rejected before
// any payload buffering, with an error naming the configured limit.
func TestFrameOversizeRejected(t *testing.T) {
	hdr := make([]byte, 5)
	binary.BigEndian.PutUint32(hdr, 1<<24)
	fr := NewFrameReader(bytes.NewReader(hdr))
	_, _, err := fr.Next()
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
	if !strings.Contains(err.Error(), "1048576-byte limit") {
		t.Fatalf("error must name the limit: %v", err)
	}
	if len(fr.buf) >= 1<<24 {
		t.Fatal("reader buffered the hostile length before rejecting it")
	}

	// A custom limit is enforced and named too.
	small := NewFrameReader(bytes.NewReader(hdr))
	small.SetLimit(64)
	if _, _, err := small.Next(); err == nil || !strings.Contains(err.Error(), "64-byte limit") {
		t.Fatalf("custom limit: err = %v", err)
	}

	// Zero-length frames are invalid framing.
	zero := make([]byte, 4)
	fr = NewFrameReader(bytes.NewReader(zero))
	if _, _, err := fr.Next(); !errors.Is(err, ErrFrameHeader) {
		t.Fatalf("zero length: err = %v, want ErrFrameHeader", err)
	}
}

// TestFrameWriterLimit: the writer refuses to produce frames above its
// limit and rolls the buffer back cleanly.
func TestFrameWriterLimit(t *testing.T) {
	var net bytes.Buffer
	fw := NewFrameWriter(&net)
	fw.SetLimit(8)
	q := sampleTxnRequest()
	if err := fw.WriteTxnRequest(q); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
	if fw.Buffered() != 0 {
		t.Fatalf("failed frame left %d bytes buffered", fw.Buffered())
	}
}

// TestFrameWriterAutoFlush: crossing the threshold flushes without an
// explicit Flush call.
func TestFrameWriterAutoFlush(t *testing.T) {
	var net bytes.Buffer
	fw := NewFrameWriter(&net)
	fw.SetAutoFlush(1)
	if err := fw.WriteTxnReply(sampleTxnReply()); err != nil {
		t.Fatal(err)
	}
	if net.Len() == 0 {
		t.Fatal("auto-flush did not write")
	}
	if fw.Buffered() != 0 {
		t.Fatal("buffer not drained by auto-flush")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("boom")
}

// TestFrameWriterStickyError: a transport error persists and suppresses
// further writes.
func TestFrameWriterStickyError(t *testing.T) {
	w := &failWriter{}
	fw := NewFrameWriter(w)
	if err := fw.WriteTxnReply(sampleTxnReply()); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err == nil {
		t.Fatal("flush must surface the transport error")
	}
	if err := fw.Flush(); err == nil {
		t.Fatal("error must be sticky")
	}
	if w.n != 1 {
		t.Fatalf("underlying writer called %d times, want 1", w.n)
	}
}

// TestAppendTxnReplyFrame: the slice-level framing helper matches the
// FrameWriter encoding byte for byte.
func TestAppendTxnReplyFrame(t *testing.T) {
	rep := sampleTxnReply()
	var net bytes.Buffer
	fw := NewFrameWriter(&net)
	if err := fw.WriteTxnReply(rep); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := AppendTxnReplyFrame(nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, net.Bytes()) {
		t.Fatalf("helper framing diverges from FrameWriter:\n%x\n%x", got, net.Bytes())
	}
}

// loopReader endlessly repeats one byte sequence (steady-state read
// source for the allocation pins).
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

// TestSteadyStateCodecZeroAlloc pins the serving-path codec at zero
// allocations per round trip: framed encode (write side) and framed
// decode into reused structs (read side).
func TestSteadyStateCodecZeroAlloc(t *testing.T) {
	q := sampleTxnRequest()
	rep := sampleTxnReply()

	fw := NewFrameWriter(io.Discard)
	// Prime buffer growth.
	for i := 0; i < 4; i++ {
		if err := fw.WriteTxnRequest(q); err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteTxnReply(rep); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, func() {
		if err := fw.WriteTxnRequest(q); err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteTxnReply(rep); err != nil {
			t.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("framed encode allocates %v times per round, want 0", n)
	}

	var one bytes.Buffer
	ofw := NewFrameWriter(&one)
	if err := ofw.WriteTxnRequest(q); err != nil {
		t.Fatal(err)
	}
	if err := ofw.WriteTxnReply(rep); err != nil {
		t.Fatal(err)
	}
	if err := ofw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&loopReader{b: one.Bytes()})
	var gotReq TxnRequest
	var gotRep TxnReply
	decodePair := func() {
		ft, payload, err := fr.Next()
		if err != nil || ft != FrameTxnReq {
			t.Fatalf("type %d err %v", ft, err)
		}
		if err := DecodeTxnRequestInto(&gotReq, payload); err != nil {
			t.Fatal(err)
		}
		ft, payload, err = fr.Next()
		if err != nil || ft != FrameTxnReply {
			t.Fatalf("type %d err %v", ft, err)
		}
		if err := DecodeTxnReplyInto(&gotRep, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		decodePair() // prime slice growth
	}
	if n := testing.AllocsPerRun(1000, decodePair); n != 0 {
		t.Fatalf("framed decode allocates %v times per round, want 0", n)
	}
}

// writePacket frames a switch-transaction packet.
func writePacket(fw *FrameWriter, p *Packet) error {
	start := fw.begin(FramePacket)
	var err error
	fw.buf, err = AppendPacket(fw.buf, p)
	return fw.finish(start, err)
}

// writeResponse frames a switch response.
func writeResponse(fw *FrameWriter, r *Response) error {
	start := fw.begin(FrameResponse)
	var err error
	fw.buf, err = AppendResponse(fw.buf, r)
	return fw.finish(start, err)
}
