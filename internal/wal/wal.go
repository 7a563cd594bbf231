// Package wal implements per-node write-ahead logging and the recovery
// protocol of Section 6.1 / Appendix A.3 of the paper.
//
// Durability of switch transactions works as follows: a database node
// appends the full intent (the instruction list) of every switch
// transaction to its local log BEFORE sending the packet — switch
// transactions count as committed at that point because the switch cannot
// abort them. When the response arrives, the node back-fills the record
// with the globally-unique transaction id (GID) the switch assigned in
// serial execution order, plus the read/write results.
//
// The log is its bytes; accessors decode copies. An append encodes its
// record into the frame Marshal writes (codec.go), an intent with room for
// the results Complete patches in; SwitchRecords and ColdRecords decode.
//
// If the switch crashes, its register state is reconstructed by replaying
// all nodes' switch records in GID order. Records whose response was lost
// (in-flight at the crash) have no GID; they are fitted into the gaps of
// the GID sequence by searching for an order whose replay reproduces every
// logged result (Figure 9's read/write-set dependency analysis). When no
// dependency constrains them, any gap assignment is consistent and the
// deterministic first one is used — exactly the paper's "any order can be
// used during recovery".
package wal

import (
	"errors"
	"fmt"

	"repro/internal/store"
	"repro/internal/txnwire"
)

// SwitchRecord is one switch transaction in a node's log, as decoded from
// its frame.
type SwitchRecord struct {
	TxnID  uint64          // node-local transaction id
	Instrs []txnwire.Instr // intent: logged before the packet is sent
	HasGID bool
	GID    uint64
	// Results mirror the switch response (one per instruction); present
	// only when HasGID.
	Results []txnwire.Result
}

// ColdWrite is one redo entry of a cold sub-transaction.
type ColdWrite struct {
	Table store.TableID
	Key   store.Key
	Field int
	Value int64
}

// ColdRecord is the commit record of a transaction's cold part.
type ColdRecord struct {
	TxnID uint64
	// LSN orders commit records across node logs: it is stamped from the
	// node's clock at append time (see Log.SetClock), and conflicting
	// writers of a row always append in their serialization order (the
	// second writer acquires the row lock only after the first released
	// it, which happens after its append). Zero when no clock is set.
	LSN       uint64
	Writes    []ColdWrite
	Committed bool
}

// chunkSize is the capacity of a stream chunk; a larger frame gets a chunk
// of its own.
const chunkSize = 32 << 10

// stream is a chunked byte log. Frames are appended into the last chunk,
// which is never reallocated, and a frame never spans two chunks.
type stream [][]byte

// grow claims n zeroed bytes at the end of s and returns where they start
// and a zero-length window onto them (capacity n) to encode into.
func (s *stream) grow(n int) (Intent, []byte) {
	last := len(*s) - 1
	if last < 0 || cap((*s)[last])-len((*s)[last]) < n {
		*s = append(*s, make([]byte, 0, max(n, chunkSize)))
		last++
	}
	c := (*s)[last]
	at := len(c)
	(*s)[last] = c[:at+n]
	return Intent{int32(last), int32(at)}, c[at:][:0:n]
}

// Intent locates a logged switch intent in its log, for Log.Complete.
type Intent struct{ chunk, off int32 }

// Log is one node's write-ahead log: the frames of its switch records and
// of its cold records, each in a stream. Appending allocates once per chunk.
type Log struct {
	nodeID   int
	now      func() uint64
	switches stream
	colds    stream
}

// NewLog creates an empty log for the given node.
func NewLog(nodeID int) *Log { return &Log{nodeID: nodeID} }

// NodeID returns the owning node.
func (l *Log) NodeID() int { return l.nodeID }

// SetClock installs the LSN source for cold commit records (the owning
// node's virtual clock). Without a clock all LSNs are zero and cold
// records are ordered only within one log.
func (l *Log) SetClock(now func() uint64) { l.now = now }

// putSwitch appends r's frame and, behind it, room for every result r
// lacks, which Complete fills.
func (l *Log) putSwitch(r *SwitchRecord) Intent {
	at, buf := l.switches.grow(4 + switchPayloadLen(len(r.Instrs), len(r.Results)) + resultLen*max(len(r.Instrs)-len(r.Results), 0))
	appendSwitchRecord(buf, r)
	return at
}

func (l *Log) putCold(r *ColdRecord) {
	_, buf := l.colds.grow(4 + coldPayloadLen(len(r.Writes)))
	appendColdRecord(buf, r)
}

// AppendSwitchIntent logs the intent of a switch transaction before it is
// sent — instrs are encoded, so they stay the caller's — and returns where
// it lies, so the caller can back-fill the response with Complete.
func (l *Log) AppendSwitchIntent(txnID uint64, instrs []txnwire.Instr) Intent {
	return l.putSwitch(&SwitchRecord{TxnID: txnID, Instrs: instrs})
}

// AppendCold logs a cold commit record of writes, which are encoded and
// stay the caller's. Read-only commits (no writes) leave no record: there
// is nothing to redo, and skipping them keeps the serving-mode read path
// free of log work.
func (l *Log) AppendCold(txnID uint64, writes []ColdWrite) {
	if len(writes) == 0 {
		return
	}
	r := ColdRecord{TxnID: txnID, Writes: writes, Committed: true}
	if l.now != nil {
		r.LSN = l.now()
	}
	l.putCold(&r)
}

// SwitchRecords decodes the log's switch records, in append order, into
// copies the caller owns.
func (l *Log) SwitchRecords() []*SwitchRecord { return decodeAll(l.switches, decodeSwitch) }

// ColdRecords decodes the log's cold records, in append order, into copies
// the caller owns.
func (l *Log) ColdRecords() []*ColdRecord { return decodeAll(l.colds, decodeCold) }

// decodeAll decodes every frame of s into a fresh record. The log wrote or
// validated each frame, so one that fails to decode is a bug.
func decodeAll[T any](s stream, decode func([]byte, *T) error) []*T {
	var out []*T
	s.each(func(f []byte) {
		r := new(T)
		if err := decode(f[5:], r); err != nil {
			panic(fmt.Sprintf("wal: a logged frame does not decode: %v", err))
		}
		out = append(out, r)
	})
	return out
}

// Replayer re-executes one whole switch transaction during recovery with
// the exact data-plane semantics (including the per-packet metadata that
// chains read-dependent and conditional writes). *pisa.Switch satisfies it
// via its ApplyTxn method.
type Replayer interface {
	ApplyTxn(instrs []txnwire.Instr) []txnwire.Result
}

// ErrInconsistentLogs reports that no ordering of the GID-less records
// reproduces the logged results — the logs contradict each other.
var ErrInconsistentLogs = errors.New("wal: no consistent order for in-flight switch transactions")

// OrderRecords reconstructs the serial order the switch executed recs in.
// Records with GIDs take their logged position; GID-less (in-flight)
// records are fitted into the remaining positions by backtracking search,
// validated by replaying on fresh state: an order is consistent when every
// record with logged results reproduces them exactly.
//
// fresh must return a Replayer initialized to the switch state at the time
// of the offload (the recovery baseline). The caller chooses which records
// participate — every log's SwitchRecords or, when some in-flight packets
// are known to have never reached the switch, a filtered subset.
func OrderRecords(recs []*SwitchRecord, fresh func() Replayer) ([]*SwitchRecord, error) {
	var known []*SwitchRecord
	var unknown []*SwitchRecord
	for _, r := range recs {
		if r.HasGID {
			known = append(known, r)
		} else {
			unknown = append(unknown, r)
		}
	}
	total := len(known) + len(unknown)
	seq := make([]*SwitchRecord, total)
	for _, r := range known {
		if r.GID >= uint64(total) {
			return nil, fmt.Errorf("wal: GID %d out of range (total %d records)", r.GID, total)
		}
		if seq[r.GID] != nil {
			return nil, fmt.Errorf("wal: duplicate GID %d in logs", r.GID)
		}
		seq[r.GID] = r
	}
	var gaps []int
	for i, r := range seq {
		if r == nil {
			gaps = append(gaps, i)
		}
	}
	if len(gaps) != len(unknown) {
		return nil, fmt.Errorf("wal: %d gaps for %d in-flight records", len(gaps), len(unknown))
	}
	if len(unknown) == 0 {
		if !consistent(seq, fresh()) {
			return nil, ErrInconsistentLogs
		}
		return seq, nil
	}

	used := make([]bool, len(unknown))
	var place func(gi int) bool
	place = func(gi int) bool {
		if gi == len(gaps) {
			return consistent(seq, fresh())
		}
		for ui := range unknown {
			if used[ui] {
				continue
			}
			used[ui] = true
			seq[gaps[gi]] = unknown[ui]
			if place(gi + 1) {
				return true
			}
			seq[gaps[gi]] = nil
			used[ui] = false
		}
		return false
	}
	if !place(0) {
		return nil, ErrInconsistentLogs
	}
	return seq, nil
}

// consistent replays seq on r and checks every logged result.
func consistent(seq []*SwitchRecord, r Replayer) bool {
	for _, rec := range seq {
		got := r.ApplyTxn(rec.Instrs)
		if !rec.HasGID {
			continue
		}
		for i := range rec.Results {
			if i >= len(got) {
				return false
			}
			if got[i].Value != rec.Results[i].Value || got[i].OK != rec.Results[i].OK {
				return false
			}
		}
	}
	return true
}
