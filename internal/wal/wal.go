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

// SwitchRecord is one switch transaction in a node's log.
type SwitchRecord struct {
	TxnID  uint64          // node-local transaction id
	Instrs []txnwire.Instr // intent: logged before the packet is sent
	HasGID bool
	GID    uint64
	// Results mirror the switch response (one per instruction); present
	// only when HasGID.
	Results []txnwire.Result

	// room is the space reserved at intent time for the back-fill (length
	// zero, capacity one result per instruction), so Complete allocates
	// nothing and Results stays nil until then.
	room []txnwire.Result
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

// Chunk sizes of a log's slabs: records per chunk, and instructions,
// results or redo writes per chunk.
const (
	recChunk  = 512
	elemChunk = 4096
)

// Log is one node's write-ahead log. Records and their instruction, result
// and write lists are carved from chunks that are never reallocated, so a
// record pointer stays valid — and its lists stay where they are — for as
// long as the log lives, and appending allocates once per chunk.
type Log struct {
	nodeID     int
	now        func() uint64
	switchRecs []*SwitchRecord
	coldRecs   []*ColdRecord

	// The unused remainder of each slab's current chunk.
	switchSlab []SwitchRecord
	coldSlab   []ColdRecord
	instrSlab  []txnwire.Instr
	resultSlab []txnwire.Result
	writeSlab  []ColdWrite
}

// carve cuts n zeroed elements off *slab, starting a new chunk when the
// current one has fewer left. The result's capacity is n: appending to it
// cannot reach a neighbour.
func carve[T any](slab *[]T, n, chunk int) []T {
	if n == 0 {
		return nil
	}
	if len(*slab) < n {
		*slab = make([]T, max(n, chunk))
	}
	out := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return out
}

// NewLog creates an empty log for the given node.
func NewLog(nodeID int) *Log { return &Log{nodeID: nodeID} }

// NodeID returns the owning node.
func (l *Log) NodeID() int { return l.nodeID }

// SetClock installs the LSN source for cold commit records (the owning
// node's virtual clock). Without a clock all LSNs are zero and cold
// records are ordered only within one log.
func (l *Log) SetClock(now func() uint64) { l.now = now }

// newSwitchRecord appends a record with n zeroed instructions and room for
// as many results.
func (l *Log) newSwitchRecord(txnID uint64, n int) *SwitchRecord {
	rec := &carve(&l.switchSlab, 1, recChunk)[0]
	rec.TxnID = txnID
	rec.Instrs = carve(&l.instrSlab, n, elemChunk)
	rec.room = carve(&l.resultSlab, n, elemChunk)[:0]
	l.switchRecs = append(l.switchRecs, rec)
	return rec
}

// newColdRecord appends a record with n zeroed writes.
func (l *Log) newColdRecord(txnID uint64, n int) *ColdRecord {
	rec := &carve(&l.coldSlab, 1, recChunk)[0]
	rec.TxnID = txnID
	rec.Writes = carve(&l.writeSlab, n, elemChunk)
	l.coldRecs = append(l.coldRecs, rec)
	return rec
}

// AppendSwitchIntent logs the intent of a switch transaction before it is
// sent — a copy of instrs — and returns the record so the caller can
// back-fill the response.
func (l *Log) AppendSwitchIntent(txnID uint64, instrs []txnwire.Instr) *SwitchRecord {
	rec := l.newSwitchRecord(txnID, len(instrs))
	copy(rec.Instrs, instrs)
	return rec
}

// Complete back-fills the switch response into the record, into the space
// reserved with the intent.
func (r *SwitchRecord) Complete(resp *txnwire.Response) {
	r.HasGID = true
	r.GID = resp.GID
	if len(resp.Results) > 0 {
		r.Results = append(r.room, resp.Results...)
	}
}

// AppendCold logs a cold commit record holding a copy of writes, which
// stay the caller's. Read-only commits (no writes) leave no record: there
// is nothing to redo, and skipping them keeps the serving-mode read path
// free of log work.
func (l *Log) AppendCold(txnID uint64, writes []ColdWrite) {
	if len(writes) == 0 {
		return
	}
	rec := l.newColdRecord(txnID, len(writes))
	if l.now != nil {
		rec.LSN = l.now()
	}
	copy(rec.Writes, writes)
	rec.Committed = true
}

// SwitchRecords returns the log's switch records in append order.
func (l *Log) SwitchRecords() []*SwitchRecord { return l.switchRecs }

// ColdRecords returns the log's cold records in append order.
func (l *Log) ColdRecords() []*ColdRecord { return l.coldRecs }

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

// OrderSwitchRecords merges the switch records of all logs into the serial
// order the switch executed them in. See OrderRecords for the protocol.
func OrderSwitchRecords(logs []*Log, fresh func() Replayer) ([]*SwitchRecord, error) {
	var recs []*SwitchRecord
	for _, l := range logs {
		recs = append(recs, l.switchRecs...)
	}
	return OrderRecords(recs, fresh)
}

// OrderRecords reconstructs the serial order the switch executed recs in.
// Records with GIDs take their logged position; GID-less (in-flight)
// records are fitted into the remaining positions by backtracking search,
// validated by replaying on fresh state: an order is consistent when every
// record with logged results reproduces them exactly.
//
// fresh must return a Replayer initialized to the switch state at the time
// of the offload (the recovery baseline). The caller chooses which records
// participate — whole logs (OrderSwitchRecords) or, when some in-flight
// packets are known to have never reached the switch, a filtered subset.
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

// RecoverSwitch reconstructs the switch state after a crash: it orders all
// logged switch transactions (see OrderSwitchRecords) and replays them on
// target, which the caller must first restore to the offload baseline. It
// returns the number of transactions replayed and the next GID the
// recovered switch should assign.
func RecoverSwitch(logs []*Log, fresh func() Replayer, target Replayer) (replayed int, nextGID uint64, err error) {
	seq, err := OrderSwitchRecords(logs, fresh)
	if err != nil {
		return 0, 0, err
	}
	for _, rec := range seq {
		target.ApplyTxn(rec.Instrs)
	}
	return len(seq), uint64(len(seq)), nil
}

// RecoverNode redoes all committed cold writes of a node's log against a
// store, in log order. (The model logs after-images at commit, so redo is
// idempotent and needs no undo phase.)
func RecoverNode(l *Log, st *store.Store) int {
	n := 0
	for _, rec := range l.coldRecs {
		if !rec.Committed {
			continue
		}
		for _, w := range rec.Writes {
			st.Table(w.Table).Set(w.Key, w.Field, w.Value)
		}
		n++
	}
	return n
}
