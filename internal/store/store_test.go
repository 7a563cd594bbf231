package store

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGlobalKeyRoundTrip(t *testing.T) {
	f := func(tbl uint8, key uint64) bool {
		key &= 0x00FF_FFFF_FFFF_FFFF
		g := Global(TableID(tbl), Key(key))
		tb, k := g.Split()
		return tb == TableID(tbl) && k == Key(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAbsentRowsReadZero(t *testing.T) {
	tb := NewTable(1, "accounts", 2)
	if v := tb.Get(42, 0); v != 0 {
		t.Fatalf("absent row reads %d, want 0", v)
	}
	if tb.Rows() != 0 {
		t.Fatal("Get materialized a row")
	}
}

func TestSetGet(t *testing.T) {
	tb := NewTable(1, "t", 3)
	tb.Set(7, 1, 99)
	if v := tb.Get(7, 1); v != 99 {
		t.Fatalf("Get = %d", v)
	}
	if v := tb.Get(7, 0); v != 0 {
		t.Fatalf("untouched field = %d, want 0", v)
	}
	if tb.Rows() != 1 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
}

func TestAddReturnsNewValue(t *testing.T) {
	tb := NewTable(1, "t", 1)
	if v := tb.Add(5, 0, 10); v != 10 {
		t.Fatalf("Add = %d", v)
	}
	if v := tb.Add(5, 0, -3); v != 7 {
		t.Fatalf("Add = %d", v)
	}
}

func TestGetRowCopies(t *testing.T) {
	tb := NewTable(1, "t", 2)
	tb.Set(1, 0, 5)
	row := tb.GetRow(1)
	row[0] = 999
	if tb.Get(1, 0) != 5 {
		t.Fatal("GetRow returned aliased storage")
	}
	absent := tb.GetRow(99)
	if len(absent) != 2 || absent[0] != 0 || absent[1] != 0 {
		t.Fatalf("absent GetRow = %v", absent)
	}
}

func TestKeysSorted(t *testing.T) {
	tb := NewTable(1, "t", 1)
	for _, k := range []Key{5, 1, 9, 3} {
		tb.Set(k, 0, 1)
	}
	ks := tb.Keys()
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatalf("Keys not sorted: %v", ks)
		}
	}
}

func TestFieldBoundsPanic(t *testing.T) {
	tb := NewTable(1, "t", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on bad field")
		}
	}()
	tb.Get(1, 2)
}

func TestStoreCreateAndLookup(t *testing.T) {
	s := New()
	s.CreateTable(1, "a", 1)
	s.CreateTable(2, "b", 2)
	if s.Table(1).Name() != "a" || s.Table(2).Fields() != 2 {
		t.Fatal("table lookup broken")
	}
}

func TestStoreDuplicateTablePanics(t *testing.T) {
	s := New()
	s.CreateTable(1, "a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate table")
		}
	}()
	s.CreateTable(1, "b", 1)
}

func TestStoreUnknownTablePanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unknown table")
		}
	}()
	s.Table(9)
}

// refTable is the representation the slab replaced — one heap slice per
// row behind a map — kept as the differential oracle.
type refTable struct {
	fields int
	rows   map[Key][]int64
}

func (r *refTable) row(k Key) []int64 {
	row, ok := r.rows[k]
	if !ok {
		row = make([]int64, r.fields)
		r.rows[k] = row
	}
	return row
}

// TestTableMatchesMapOfSlices drives a slab table and the map-of-slices
// reference through the same random Set/Add/Get/GetRow calls over a key
// range small enough to revisit rows and wide enough to grow the slab many
// times. Every read must agree, reads must materialize nothing, and the
// final Rows, Keys and Walk must describe the reference exactly.
func TestTableMatchesMapOfSlices(t *testing.T) {
	for _, fields := range []int{1, 3} {
		rng := rand.New(rand.NewSource(int64(fields)))
		tb := NewTable(1, "t", fields)
		ref := &refTable{fields: fields, rows: map[Key][]int64{}}
		for i := 0; i < 200000; i++ {
			k, f, v := Key(rng.Intn(30000)), rng.Intn(fields), rng.Int63n(1000)-500
			switch rng.Intn(4) {
			case 0:
				tb.Set(k, f, v)
				ref.row(k)[f] = v
			case 1:
				ref.row(k)[f] += v
				if got := tb.Add(k, f, v); got != ref.rows[k][f] {
					t.Fatalf("op %d: Add(%d, %d, %d) = %d, reference %d", i, k, f, v, got, ref.rows[k][f])
				}
			case 2:
				var want int64
				if row, ok := ref.rows[k]; ok {
					want = row[f]
				}
				if got := tb.Get(k, f); got != want {
					t.Fatalf("op %d: Get(%d, %d) = %d, reference %d", i, k, f, got, want)
				}
			case 3:
				want := make([]int64, fields)
				copy(want, ref.rows[k])
				if got := tb.GetRow(k); !slices.Equal(got, want) {
					t.Fatalf("op %d: GetRow(%d) = %v, reference %v", i, k, got, want)
				}
			}
			if tb.Rows() != len(ref.rows) {
				t.Fatalf("op %d: %d rows, reference %d: a read materialized a row or a write did not", i, tb.Rows(), len(ref.rows))
			}
		}
		var want []Key
		for k := range ref.rows {
			want = append(want, k)
		}
		slices.Sort(want)
		if !slices.Equal(tb.Keys(), want) {
			t.Fatalf("%d fields: Keys differ from the reference", fields)
		}
		var walked []Key
		tb.Walk(func(k Key, row []int64) {
			walked = append(walked, k)
			if !slices.Equal(row, ref.rows[k]) {
				t.Fatalf("%d fields: Walk row %d = %v, reference %v", fields, k, row, ref.rows[k])
			}
		})
		if !slices.Equal(walked, want) {
			t.Fatalf("%d fields: Walk visited %d rows out of order or incomplete, want %d sorted", fields, len(walked), len(want))
		}
	}
}

// TestCloneSharesNothing: a clone holds the same tables and rows, and
// neither side sees the other's later writes or materializations.
func TestCloneSharesNothing(t *testing.T) {
	s := New()
	s.CreateTable(0, "a", 1).Set(1, 0, 10)
	s.CreateTable(3, "b", 2).Set(7, 1, 70)
	c := s.Clone()
	if !slices.Equal(c.TableIDs(), []TableID{0, 3}) || c.Table(3).Name() != "b" || c.Table(3).Fields() != 2 {
		t.Fatalf("clone lost the schema: tables %v", c.TableIDs())
	}
	if c.Table(0).Get(1, 0) != 10 || c.Table(3).Get(7, 1) != 70 {
		t.Fatal("clone lost a row")
	}
	s.Table(0).Set(1, 0, 11)
	s.Table(0).Set(2, 0, 20)
	c.Table(3).Add(7, 1, 1)
	c.Table(3).Set(8, 0, 80)
	if c.Table(0).Get(1, 0) != 10 || c.Table(0).Rows() != 1 {
		t.Fatal("a write to the original reached the clone")
	}
	if s.Table(3).Get(7, 1) != 70 || s.Table(3).Rows() != 1 {
		t.Fatal("a write to the clone reached the original")
	}
}

// TestResidentRowZeroAlloc pins reads and writes of a materialized row,
// and reads of an absent one, at zero heap allocations.
func TestResidentRowZeroAlloc(t *testing.T) {
	s := New()
	tb := s.CreateTable(2, "t", 2)
	tb.Set(5, 0, 1)
	if avg := testing.AllocsPerRun(1000, func() {
		tb := s.Table(2)
		tb.Set(5, 1, 3)
		tb.Add(5, 0, 1)
		tb.Get(5, 0)
		tb.Get(99, 1)
	}); avg != 0 {
		t.Fatalf("resident row access allocates %.2f objects/op, want 0", avg)
	}
	if tb.Rows() != 1 {
		t.Fatal("Get materialized the absent row")
	}
}
