package wal

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/store"
	"repro/internal/txnwire"
)

// TestRecordsStayPutAcrossChunkGrowth appends 10k intents of one to four
// instructions — some thirty chunks — completing every third one late,
// after 64 more appends, the way a response lands while the node keeps
// logging. Every handle must still locate its own frame when the last
// record is in: each completion lands in its record, with its
// instructions intact; the very first record is completed last of all.
func TestRecordsStayPutAcrossChunkGrowth(t *testing.T) {
	const n = 10000
	l := NewLog(0)
	instrsOf := func(i int) []txnwire.Instr {
		out := make([]txnwire.Instr, 1+i%4)
		for j := range out {
			out[j] = txnwire.Instr{Op: txnwire.OpAdd, Stage: uint8(j), Index: uint32(i), Operand: int64(i*10 + j)}
		}
		return out
	}
	respOf := func(i int) *txnwire.Response {
		resp := &txnwire.Response{GID: uint64(i)}
		for j := 0; j < 1+i%4; j++ {
			resp.Results = append(resp.Results, txnwire.Result{Value: int64(i*100 + j), OK: j%2 == 0})
		}
		return resp
	}
	completed := func(i int) bool { return i%3 == 0 }

	handed := make([]Intent, n)
	for i := 0; i < n; i++ {
		src := instrsOf(i)
		handed[i] = l.AppendSwitchIntent(uint64(i), src)
		src[0].Operand = -1 // the log must hold a copy
		if late := i - 64; late > 0 && completed(late) {
			l.Complete(handed[late], respOf(late))
		}
	}
	for late := n - 64; late < n; late++ {
		if late > 0 && completed(late) {
			l.Complete(handed[late], respOf(late))
		}
	}
	l.Complete(handed[0], respOf(0))
	if len(l.switches) < 20 {
		t.Fatalf("the records fill %d chunks; the test wants many", len(l.switches))
	}

	recs := l.SwitchRecords()
	if len(recs) != n {
		t.Fatalf("%d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if rec.TxnID != uint64(i) || !slices.Equal(rec.Instrs, instrsOf(i)) {
			t.Fatalf("record %d = txn %d %v, want txn %d %v", i, rec.TxnID, rec.Instrs, i, instrsOf(i))
		}
		if !completed(i) {
			if rec.HasGID || rec.Results != nil {
				t.Fatalf("in-flight record %d has HasGID=%v Results=%v, want none (nil)", i, rec.HasGID, rec.Results)
			}
			continue
		}
		if want := respOf(i); !rec.HasGID || rec.GID != want.GID || !slices.Equal(rec.Results, want.Results) {
			t.Fatalf("record %d back-filled with GID %d %v, want GID %d %v", i, rec.GID, rec.Results, want.GID, want.Results)
		}
	}

	// What the chunks hold is what the codec writes and reads back.
	got, torn, err := UnmarshalLog(0, l.Marshal())
	if err != nil || torn {
		t.Fatalf("UnmarshalLog: torn=%v err=%v", torn, err)
	}
	if !reflect.DeepEqual(got.SwitchRecords(), recs) {
		t.Fatal("the log does not survive a codec round trip")
	}
}

// TestLogHoldsOnlyItsBytes is the log's memory gate: 10k durable commits —
// an intent of one to four instructions completed 64 appends later, and a
// cold record of one to three writes — keep no more bytes than their
// marshalled image plus one chunk per stream. The result room of the
// intents still in flight at the end and the tail of each stream's last
// chunk are all that may come on top. A log of record structs and pointer
// lists held twice its image.
func TestLogHoldsOnlyItsBytes(t *testing.T) {
	const n, lag = 10000, 64
	l := NewLog(0)
	l.SetClock(func() uint64 { return 7 })
	instrs := make([]txnwire.Instr, 4)
	results := make([]txnwire.Result, 4)
	writes := make([]ColdWrite, 3)
	handed := make([]Intent, n)
	for i := 0; i < n; i++ {
		for j := range instrs {
			instrs[j] = addInstr(uint32(i+j), int64(i))
		}
		handed[i] = l.AppendSwitchIntent(uint64(i), instrs[:1+i%4])
		if late := i - lag; late >= 0 {
			l.Complete(handed[late], &txnwire.Response{GID: uint64(late), Results: results[:1+late%4]})
		}
		for j := range writes {
			writes[j] = ColdWrite{Table: 1, Key: store.Key(i + j), Value: int64(i)}
		}
		l.AppendCold(uint64(i), writes[:1+i%3])
	}
	retained := 0
	for _, s := range []stream{l.switches, l.colds} {
		for _, c := range s {
			retained += cap(c)
		}
	}
	image := len(l.Marshal())
	t.Logf("%d commits: %d B marshalled, %d B retained in %d + %d chunks", n, image, retained, len(l.switches), len(l.colds))
	if budget := image + 2*chunkSize; retained > budget {
		t.Errorf("the log retains %d B for a %d B image, budget %d B", retained, image, budget)
	}
}

// TestAppendColdCopies: the caller keeps its write buffer. The benchmark
// appends one slice over and over, and an attempt truncates and refills
// its buffer for the next transaction; neither may reach a logged record.
func TestAppendColdCopies(t *testing.T) {
	l := NewLog(0)
	buf := []ColdWrite{{Table: 1, Key: 5, Value: 1}, {Table: 1, Key: 6, Value: 2}}
	const n = 3000 // several record chunks, two write chunks
	for i := 0; i < n; i++ {
		buf[0].Value = int64(i)
		l.AppendCold(uint64(i), buf)
	}
	buf[0].Value, buf[1].Key = -1, 99
	buf = append(buf[:0], ColdWrite{Table: 7})
	recs := l.ColdRecords()
	if len(recs) != n {
		t.Fatalf("%d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		want := []ColdWrite{{Table: 1, Key: 5, Value: int64(i)}, {Table: 1, Key: 6, Value: 2}}
		if rec.TxnID != uint64(i) || !rec.Committed || !slices.Equal(rec.Writes, want) {
			t.Fatalf("record %d = %+v, want txn %d with writes %v", i, *rec, i, want)
		}
	}
	if l.AppendCold(n, nil); len(l.ColdRecords()) != n {
		t.Fatal("a commit without writes left a record")
	}
}

// TestAppendInsideChunkZeroAlloc pins the logging calls of a durable
// commit — intent, back-fill, cold record — at zero heap allocations while
// they fit the current chunks: a chunk holds over 300 of these commits'
// frames and a run makes 201.
func TestAppendInsideChunkZeroAlloc(t *testing.T) {
	l := NewLog(0)
	instrs := []txnwire.Instr{addInstr(0, 1), addInstr(1, 2), addInstr(2, 3)}
	resp := &txnwire.Response{GID: 1, Results: []txnwire.Result{{Value: 1, OK: true}, {Value: 2, OK: true}, {Value: 3, OK: true}}}
	writes := []ColdWrite{{Table: 1, Key: 5, Value: 42}, {Table: 1, Key: 6, Value: 43}}
	commit := func() {
		l.Complete(l.AppendSwitchIntent(7, instrs), resp)
		l.AppendCold(7, writes)
	}
	commit() // opens the first chunk of each stream
	if avg := testing.AllocsPerRun(200, commit); avg != 0 {
		t.Fatalf("a durable commit's log appends allocate %.2f objects, want 0", avg)
	}
}
