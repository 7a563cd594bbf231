// Package txnwire defines the binary packet format for switch transactions
// (Figure 6 of the paper): a fixed header carrying processing information
// (is_multipass flag, required pipeline locks, recirculation counter)
// followed by a variable number of instructions, each describing one
// operation on a switch register array.
//
// P4DB maps one transaction to one network packet; database nodes encode a
// packet from the hot transaction's operations and the switch decodes and
// executes it in the data plane. This package implements the codec both
// sides share, using fixed-width big-endian fields as a P4 parser would.
package txnwire

import (
	"errors"
	"fmt"
)

// Op is a switch instruction opcode. The set mirrors what a Tofino
// RegisterAction can express in a single stateful ALU invocation: trivial
// reads/writes, fixed-point add, and the constrained write used for simple
// consistency checks (Section 5.1).
type Op uint8

// Opcodes.
const (
	// OpRead loads the register value; the operand is ignored.
	OpRead Op = iota
	// OpWrite stores the operand into the register.
	OpWrite
	// OpAdd adds the operand (fixed-point) and stores the sum; the result
	// carries the new value. Reads-dependent-writes compile to OpAdd.
	OpAdd
	// OpCondAddGE0 is a constrained write: add the operand only if the sum
	// stays >= 0, otherwise leave the register unchanged and clear OK.
	// This implements SmallBank-style "balance must not go negative"
	// checks without aborts.
	OpCondAddGE0
	// OpMax stores max(current, operand); used for monotonic counters.
	OpMax
	// OpReadClear atomically reads the register into the result, adds it
	// to the packet's accumulator metadata, and zeroes the register — the
	// "read-and-clear" RegisterAction SmallBank's Amalgamate uses.
	OpReadClear
	// OpAddAcc adds the packet's accumulator (the sum of all prior
	// OpReadClear values in this transaction) plus the operand to the
	// register. Read-dependent writes across tuples compile to
	// OpReadClear followed by OpAddAcc in a later stage, with the value
	// carried in packet metadata exactly as a P4 program would.
	OpAddAcc
	// OpAddIfOK adds the operand only if the packet's ok-flag is still
	// set; OpCondAddGE0 clears the flag when its predicate fails. This
	// chains a conditional transfer (SendPayment): the credit leg applies
	// only if the debit leg succeeded.
	OpAddIfOK
	numOps
)

// Valid reports whether the opcode is defined.
func (o Op) Valid() bool { return o < numOps }

// String returns the opcode mnemonic.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpAdd:
		return "ADD"
	case OpCondAddGE0:
		return "CADD>=0"
	case OpMax:
		return "MAX"
	case OpReadClear:
		return "RDCLR"
	case OpAddAcc:
		return "ADDACC"
	case OpAddIfOK:
		return "ADDIFOK"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Instr is one operation of a switch transaction: an opcode applied to one
// slot (Index) of one register array (Stage, Array).
type Instr struct {
	Op      Op
	Stage   uint8
	Array   uint8
	Index   uint32
	Operand int64
}

func (i Instr) String() string {
	return fmt.Sprintf("%s s%d/a%d[%d] %d", i.Op, i.Stage, i.Array, i.Index, i.Operand)
}

// Header carries the processing information of Figure 6. For multi-pass
// transactions LockLeft/LockRight name the pipeline locks to acquire on the
// first pass and free on the last; for single-pass transactions they name
// the locks that must be free for admission.
type Header struct {
	IsMultipass bool
	LockLeft    bool
	LockRight   bool
	NbRecircs   uint8
	TxnID       uint64 // caller-side id, echoed in the response
}

// Packet is one switch transaction on the wire.
type Packet struct {
	Header Header
	Instrs []Instr
}

// Result is the per-instruction outcome returned by the switch: the value
// read (or the post-write value) and whether a constrained write applied.
type Result struct {
	Value int64
	OK    bool
}

// Response is the switch's reply packet: the globally-unique transaction id
// (GID) assigned by the switch in serial execution order, the recirculation
// count the packet accumulated, and one result per instruction.
type Response struct {
	TxnID   uint64
	GID     uint64
	Recircs uint8
	Results []Result
}

// Wire layout sizes.
const (
	headerSize   = 1 + 1 + 8 + 1 // flags, nbRecircs, txnID, nInstr
	instrSize    = 1 + 1 + 1 + 4 + 8
	respHdrSize  = 8 + 8 + 1 + 1 // txnID, gid, recircs, nResults
	resultSize   = 8 + 1
	maxInstrs    = 255
	flagMulti    = 1 << 0
	flagLockL    = 1 << 1
	flagLockR    = 1 << 2
	flagResultOK = 1 << 0
)

// Codec errors.
var (
	ErrTooManyInstrs = errors.New("txnwire: more than 255 instructions")
	ErrShortPacket   = errors.New("txnwire: packet truncated")
	ErrBadOpcode     = errors.New("txnwire: invalid opcode")
)

// Encode serializes the packet into a fresh buffer. The serving path uses
// AppendPacket (codec.go) to reuse buffers instead.
func Encode(p *Packet) ([]byte, error) {
	buf, err := AppendPacket(make([]byte, 0, headerSize+instrSize*len(p.Instrs)), p)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// Decode parses a packet previously produced by Encode. Trailing bytes
// after the declared instruction count are ignored; the framed serving
// path uses DecodePacketInto, which reports the remainder to its caller.
func Decode(buf []byte) (*Packet, error) {
	p := new(Packet)
	if _, err := DecodePacketInto(p, buf); err != nil {
		return nil, err
	}
	return p, nil
}
