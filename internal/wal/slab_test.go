package wal

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/txnwire"
)

// TestRecordsStayPutAcrossChunkGrowth appends 10k intents of one to four
// instructions — twenty record chunks, several instruction and result
// chunks — completing every third one late, after 64 more appends, the way
// a response lands while the node keeps logging. Every pointer handed out
// must still be the log's record, with its instructions and results
// intact, when the last one is in; the very first record is completed
// last of all.
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

	handed := make([]*SwitchRecord, n)
	for i := 0; i < n; i++ {
		src := instrsOf(i)
		handed[i] = l.AppendSwitchIntent(uint64(i), src)
		src[0].Operand = -1 // the log must hold a copy
		if late := i - 64; late > 0 && completed(late) {
			handed[late].Complete(respOf(late))
		}
	}
	for late := n - 64; late < n; late++ {
		if late > 0 && completed(late) {
			handed[late].Complete(respOf(late))
		}
	}
	handed[0].Complete(respOf(0))

	recs := l.SwitchRecords()
	if len(recs) != n {
		t.Fatalf("%d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if rec != handed[i] {
			t.Fatalf("record %d moved: the log holds %p, the caller was handed %p", i, rec, handed[i])
		}
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

	// What the slabs hold is what the codec writes and reads back.
	got, torn, err := UnmarshalLog(0, l.Marshal())
	if err != nil || torn {
		t.Fatalf("UnmarshalLog: torn=%v err=%v", torn, err)
	}
	if !reflect.DeepEqual(got.SwitchRecords(), recs) {
		t.Fatal("the log does not survive a codec round trip")
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
// they fit the current chunks. The record lists are pre-grown; a chunk
// holds at least 512 appends and a run makes 200.
func TestAppendInsideChunkZeroAlloc(t *testing.T) {
	l := NewLog(0)
	l.switchRecs = make([]*SwitchRecord, 0, 1024)
	l.coldRecs = make([]*ColdRecord, 0, 1024)
	instrs := []txnwire.Instr{addInstr(0, 1), addInstr(1, 2), addInstr(2, 3)}
	resp := &txnwire.Response{GID: 1, Results: []txnwire.Result{{Value: 1, OK: true}, {Value: 2, OK: true}, {Value: 3, OK: true}}}
	writes := []ColdWrite{{Table: 1, Key: 5, Value: 42}, {Table: 1, Key: 6, Value: 43}}
	commit := func() {
		l.AppendSwitchIntent(7, instrs).Complete(resp)
		l.AppendCold(7, writes)
	}
	commit() // opens the first chunk of every slab
	if avg := testing.AllocsPerRun(200, commit); avg != 0 {
		t.Fatalf("a durable commit's log appends allocate %.2f objects, want 0", avg)
	}
}
