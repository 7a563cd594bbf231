package hotset

import (
	"encoding/binary"
	"hash"
	"math"
	"math/bits"

	"repro/internal/layout"
	"repro/internal/store"
)

// Sample is a replayed workload sample in flat form: the accesses of all
// transactions back to back in one arena, nothing allocated per
// transaction. Drawing one and hashing it (HashInto) is all a preparation
// that hits the cache pays; detection interns the arena's keys to dense
// ids in one more pass (tally) and from there on reads arrays indexed by
// dense id or arena position instead of hashing keys again. Built by one
// goroutine (Add per statement, EndTxn per transaction), read-only
// afterwards.
type Sample struct {
	keys []store.GlobalKey // arena: the tuple every access touches
	deps []uint32          // arena: position within its transaction of the access this one depends on, or noDep
	off  []uint32          // transaction i is arena[off[i]:off[i+1]]
}

const noDep = math.MaxUint32

// NewSample returns an empty sample sized for about txns transactions of
// up to 16 statements (reserving that up front beats growing into it, and
// the sample is dropped once the build is prepared); beyond that its
// arrays grow as they fill.
func NewSample(txns int) *Sample {
	return &Sample{
		keys: make([]store.GlobalKey, 0, 16*txns),
		deps: make([]uint32, 0, 16*txns),
		off:  make([]uint32, 1, txns+1),
	}
}

// SampleOf flattens a sample held as per-transaction slices.
func SampleOf(txns [][]Access) *Sample {
	s := NewSample(len(txns))
	for _, txn := range txns {
		for _, a := range txn {
			s.Add(a.Key, a.DependsOn)
		}
		s.EndTxn()
	}
	return s
}

// Add appends one statement to the transaction being replayed: the tuple
// it touches and the index of the earlier statement of that transaction it
// depends on (anything else is no dependency).
func (s *Sample) Add(k store.GlobalKey, dependsOn int) {
	dep := uint32(noDep)
	if pos := len(s.keys) - int(s.off[len(s.off)-1]); dependsOn >= 0 && dependsOn < pos {
		dep = uint32(dependsOn)
	}
	s.keys = append(s.keys, k)
	s.deps = append(s.deps, dep)
}

// EndTxn closes the transaction the preceding Add calls replayed.
func (s *Sample) EndTxn() { s.off = append(s.off, uint32(len(s.keys))) }

// HashInto feeds the sample's content to h in large blocks; two samples
// write the same bytes exactly when they hold the same transactions.
func (s *Sample) HashInto(h hash.Hash) {
	buf := make([]byte, 0, 32<<10)
	buf = hashWords(h, buf, s.keys)
	buf = hashWords(h, buf, s.deps)
	buf = hashWords(h, buf, s.off)
	h.Write(buf)
}

// hashWords appends words to buf in their own width, writing buf out to h
// whenever it is full.
func hashWords[T ~uint32 | ~uint64](h hash.Hash, buf []byte, words []T) []byte {
	wide := uint64(^T(0)) > math.MaxUint32
	for _, w := range words {
		if len(buf)+8 > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		if wide {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(w))
		} else {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
		}
	}
	return buf
}

// tally is a sample's keys interned: a dense id per distinct key, in
// first-access order, and how often each was accessed.
type tally struct {
	ids   []uint32   // arena: dense id of the key of every access
	n     int        // distinct keys
	table []interned // open-addressed by key, at most half full
	shift uint       // 64 - log2(len(table))
}

// interned is one slot of the intern table; count == 0 marks it empty.
// Key, id and count share the slot so that an access costs one probe —
// one cache line — whether the key is new or not.
type interned struct {
	key       store.GlobalKey
	id, count uint32
}

// tally interns every access of the sample.
func (s *Sample) tally() *tally {
	log := max(8, bits.Len(uint(len(s.keys)/2))) // room for a distinct key per four accesses before growing
	t := &tally{
		ids:   make([]uint32, len(s.keys)),
		table: make([]interned, 1<<log),
		shift: uint(64 - log),
	}
	for i, k := range s.keys {
		e := t.probe(k)
		if e.count == 0 {
			if 2*t.n >= len(t.table) {
				t.grow()
				e = t.probe(k)
			}
			*e = interned{key: k, id: uint32(t.n)}
			t.n++
		}
		e.count++
		t.ids[i] = e.id
	}
	return t
}

// probe returns k's slot in the intern table, or the empty slot it
// belongs in.
func (t *tally) probe(k store.GlobalKey) *interned {
	mask := len(t.table) - 1
	i := int(uint64(k) * 0x9E3779B97F4A7C15 >> t.shift)
	for t.table[i].count != 0 && t.table[i].key != k {
		i = (i + 1) & mask
	}
	return &t.table[i]
}

// grow doubles the intern table and re-seats every key.
func (t *tally) grow() {
	old := t.table
	t.table = make([]interned, 2*len(old))
	t.shift--
	for _, e := range old {
		if e.count != 0 {
			*t.probe(e.key) = e
		}
	}
}

// project builds the hot-set over hot (distinct keys in selection order).
// One walk of the arena maps every access to its hot index by array
// lookup, drops the cold ones and remaps dependencies to the kept subset
// (a dependency through a dropped access becomes independent).
// Transactions left with two or more hot accesses — the switch
// sub-transactions hot and warm transactions will run — are folded into
// the access graph and kept for layout refinement.
func (s *Sample) project(t *tally, hot []store.GlobalKey) *HotSet {
	h := &HotSet{keys: hot, graph: layout.NewGraph()}
	hotOf := make([]int32, t.n) // dense id -> hot index, -1 = cold
	for id := range hotOf {
		hotOf[id] = -1
	}
	for i, k := range hot {
		h.graph.AddTuple(layout.TupleID(k)) // its dense id in the graph = its hot index
		if e := t.probe(k); e.count != 0 {
			hotOf[e.id] = int32(i)
		}
	}
	var deps, remap []int32 // per transaction: kept dependencies; arena position -> kept position
	for i := 0; i+1 < len(s.off); i++ {
		start := len(h.proj)
		deps, remap = deps[:0], remap[:0]
		for j := s.off[i]; j < s.off[i+1]; j++ {
			hx := hotOf[t.ids[j]]
			if hx < 0 {
				remap = append(remap, -1)
				continue
			}
			dep := int32(-1)
			if d := s.deps[j]; d != noDep {
				dep = remap[d]
			}
			remap = append(remap, int32(len(h.proj)-start))
			h.proj = append(h.proj, hx)
			deps = append(deps, dep)
		}
		if len(h.proj)-start < 2 {
			h.proj = h.proj[:start]
			continue
		}
		h.graph.AddTxnDense(h.proj[start:], deps)
		h.ends = append(h.ends, uint32(len(h.proj)))
	}
	return h
}
