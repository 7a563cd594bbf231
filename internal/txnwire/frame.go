package txnwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Stream framing for serving txnwire over a byte stream (TCP). Every frame
// is a 4-byte big-endian length n (counting the type byte plus payload,
// so n >= 1), a 1-byte frame type, and the payload:
//
//	[u32 n][u8 type][payload: n-1 bytes]
//
// FrameReader and FrameWriter are the streaming halves: the reader refills
// one reused buffer and hands out payload slices into it (no per-frame
// allocation); the writer encodes frames directly into its buffer and
// flushes coalesced batches to the underlying connection.

// FrameType tags what the payload encodes.
type FrameType uint8

// Frame types.
const (
	// FramePacket carries a raw switch-transaction Packet (Figure 6).
	FramePacket FrameType = 1
	// FrameResponse carries a raw switch Response.
	FrameResponse FrameType = 2
	// FrameTxnReq carries a TxnRequest envelope (a full workload
	// transaction routed through the engine registry).
	FrameTxnReq FrameType = 3
	// FrameTxnReply carries a TxnReply envelope.
	FrameTxnReply FrameType = 4
)

// DefaultMaxFrame bounds a frame's length field (type byte + payload).
// The largest legitimate envelope is ~5.4KB (255 instructions), so 1MiB
// leaves headroom for future frame types while rejecting hostile lengths
// before any buffering happens.
const DefaultMaxFrame = 1 << 20

const frameHdrSize = 4

// Framing errors.
var (
	// ErrFrameTooBig wraps oversized-frame rejections; the returned error
	// names both the offending size and the configured limit.
	ErrFrameTooBig = errors.New("txnwire: frame too big")
	// ErrFrameHeader marks a length field no frame can have (zero).
	ErrFrameHeader = errors.New("txnwire: invalid frame length 0")
)

// FrameReader decodes frames from an io.Reader. It refills a single
// internal buffer (compacting and growing it as needed, up to the frame
// limit) and returns payload slices aliasing that buffer, so the
// steady-state read path performs no allocation. Torn reads are handled by
// construction: Next blocks refilling until the whole frame has arrived.
type FrameReader struct {
	r          io.Reader
	buf        []byte
	start, end int
	limit      int
}

// NewFrameReader returns a FrameReader with the DefaultMaxFrame limit.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r, limit: DefaultMaxFrame}
}

// SetLimit overrides the maximum accepted frame length (type byte +
// payload). Values < 1 are ignored.
func (fr *FrameReader) SetLimit(n int) {
	if n >= 1 {
		fr.limit = n
	}
}

// Next returns the next frame's type and payload. The payload slice is
// valid only until the following Next call. A clean end of stream at a
// frame boundary returns io.EOF; mid-frame truncation returns
// io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (FrameType, []byte, error) {
	if err := fr.ensure(frameHdrSize); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.buf[fr.start:]))
	if n < 1 {
		return 0, nil, ErrFrameHeader
	}
	if n > fr.limit {
		return 0, nil, fmt.Errorf("%w: %d bytes exceeds the %d-byte limit", ErrFrameTooBig, n, fr.limit)
	}
	if err := fr.ensure(frameHdrSize + n); err != nil {
		return 0, nil, err
	}
	ft := FrameType(fr.buf[fr.start+frameHdrSize])
	payload := fr.buf[fr.start+frameHdrSize+1 : fr.start+frameHdrSize+n]
	fr.start += frameHdrSize + n
	return ft, payload, nil
}

// ensure refills until n bytes are buffered from start, compacting and
// growing the buffer as required.
func (fr *FrameReader) ensure(n int) error {
	for fr.end-fr.start < n {
		if len(fr.buf)-fr.start < n || fr.end == len(fr.buf) {
			copy(fr.buf, fr.buf[fr.start:fr.end])
			fr.end -= fr.start
			fr.start = 0
			if len(fr.buf) < n {
				size := 2 * len(fr.buf)
				if size < 4096 {
					size = 4096
				}
				if size < n {
					size = n
				}
				nb := make([]byte, size)
				copy(nb, fr.buf[:fr.end])
				fr.buf = nb
			}
		}
		m, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += m
		if err != nil {
			if fr.end-fr.start >= n {
				return nil
			}
			if err == io.EOF {
				if fr.end == fr.start {
					return io.EOF
				}
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// FrameWriter encodes frames into an internal buffer and writes them to
// the underlying writer in coalesced batches: explicitly via Flush (batch
// boundary), or automatically when the buffer crosses the auto-flush
// threshold. Encoding appends directly into the buffer — no intermediate
// per-frame slice — so the steady-state write path is allocation-free.
type FrameWriter struct {
	w         io.Writer
	buf       []byte
	limit     int
	autoFlush int
	err       error // sticky transport error
}

// NewFrameWriter returns a FrameWriter with the DefaultMaxFrame limit and
// no auto-flush threshold (callers flush at batch boundaries).
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w, limit: DefaultMaxFrame}
}

// SetLimit overrides the maximum frame length this writer will produce.
func (fw *FrameWriter) SetLimit(n int) {
	if n >= 1 {
		fw.limit = n
	}
}

// SetAutoFlush makes the writer flush whenever the buffered bytes reach n
// (0 disables; flushing then happens only at explicit Flush calls).
func (fw *FrameWriter) SetAutoFlush(n int) { fw.autoFlush = n }

// Buffered returns the number of bytes waiting for the next flush.
func (fw *FrameWriter) Buffered() int { return len(fw.buf) }

// begin reserves a frame header and returns the frame's buffer offset.
func (fw *FrameWriter) begin(ft FrameType) int {
	start := len(fw.buf)
	fw.buf = append(fw.buf, 0, 0, 0, 0, byte(ft))
	return start
}

// finish patches the length field (rolling the frame back on error) and
// applies the auto-flush policy.
func (fw *FrameWriter) finish(start int, err error) error {
	if err != nil {
		fw.buf = fw.buf[:start]
		return err
	}
	n := len(fw.buf) - start - frameHdrSize
	if n > fw.limit {
		fw.buf = fw.buf[:start]
		return fmt.Errorf("%w: %d bytes exceeds the %d-byte limit", ErrFrameTooBig, n, fw.limit)
	}
	binary.BigEndian.PutUint32(fw.buf[start:], uint32(n))
	if fw.autoFlush > 0 && len(fw.buf) >= fw.autoFlush {
		return fw.Flush()
	}
	return nil
}

// WriteTxnRequest frames a workload-transaction request envelope.
func (fw *FrameWriter) WriteTxnRequest(q *TxnRequest) error {
	start := fw.begin(FrameTxnReq)
	var err error
	fw.buf, err = AppendTxnRequest(fw.buf, q)
	return fw.finish(start, err)
}

// WriteTxnReply frames a transaction reply envelope.
func (fw *FrameWriter) WriteTxnReply(r *TxnReply) error {
	start := fw.begin(FrameTxnReply)
	var err error
	fw.buf, err = AppendTxnReply(fw.buf, r)
	return fw.finish(start, err)
}

// Flush writes the buffered frames to the underlying writer. Transport
// errors are sticky: once a write fails, every later call reports it.
func (fw *FrameWriter) Flush() error {
	if fw.err != nil {
		return fw.err
	}
	if len(fw.buf) == 0 {
		return nil
	}
	_, err := fw.w.Write(fw.buf)
	fw.buf = fw.buf[:0]
	if err != nil {
		fw.err = err
	}
	return err
}

// AppendTxnReplyFrame appends a framed TxnReply to dst: the server's
// engine loop encodes replies straight into each connection's output
// buffer with this, no FrameWriter needed. On error dst is unchanged.
func AppendTxnReplyFrame(dst []byte, r *TxnReply) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(FrameTxnReply))
	out, err := AppendTxnReply(dst, r)
	if err != nil {
		return out[:start], err
	}
	binary.BigEndian.PutUint32(out[start:], uint32(len(out)-start-frameHdrSize))
	return out, nil
}
