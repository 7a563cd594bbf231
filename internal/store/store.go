// Package store is the per-node in-memory storage engine of the host
// DBMS: partitioned tables of fixed-schema rows behind a primary index.
//
// Rows are arrays of int64 fields — the same fixed-point representation
// the switch registers use — so a tuple can move between a node and the
// switch without conversion. Tables are lazily materialized: absent keys
// read as zero-filled rows, which lets benchmarks declare billion-row
// keyspaces (YCSB) without allocating them. A table keeps its rows back
// to back in one slab, so materializing a row allocates nothing beyond
// the slab's and the index's amortized growth.
package store

import (
	"fmt"
	"maps"
	"slices"
)

// TableID identifies a table within a node (dense, small).
type TableID uint8

// Key is a primary key within a table.
type Key uint64

// GlobalKey packs (table, key) into the single uint64 used by the lock
// manager and the layout engine. The top byte carries the table.
type GlobalKey uint64

// Global returns the packed identifier of (table, key).
func Global(t TableID, k Key) GlobalKey {
	return GlobalKey(uint64(t)<<56 | uint64(k)&0x00FF_FFFF_FFFF_FFFF)
}

// Split unpacks a GlobalKey.
func (g GlobalKey) Split() (TableID, Key) {
	return TableID(g >> 56), Key(g & 0x00FF_FFFF_FFFF_FFFF)
}

// GlobalField packs (table, field, key) into a single identifier. The
// switch stores individual columns (the paper offloads e.g. the district's
// d_ytd and d_next_o_id separately), so layout and hot-index entries are
// field-qualified, while locks stay row-granular via Global.
func GlobalField(t TableID, f int, k Key) GlobalKey {
	if f < 0 || f > 15 {
		panic(fmt.Sprintf("store: field %d not encodable (0..15)", f))
	}
	return GlobalKey(uint64(t)<<56 | uint64(f)<<52 | uint64(k)&0x000F_FFFF_FFFF_FFFF)
}

// SplitField unpacks a field-qualified identifier.
func (g GlobalKey) SplitField() (TableID, int, Key) {
	return TableID(g >> 56), int(g >> 52 & 0xF), Key(g & 0x000F_FFFF_FFFF_FFFF)
}

func (g GlobalKey) String() string {
	t, k := g.Split()
	return fmt.Sprintf("t%d/%d", t, k)
}

// Table is one node's partition of a logical table.
type Table struct {
	id     TableID
	name   string
	fields int
	index  map[Key]uint32 // key -> row number, in materialization order
	slab   []int64        // row r is slab[r*fields : (r+1)*fields]
}

// NewTable creates an empty table partition with the given row schema
// width (number of int64 fields).
func NewTable(id TableID, name string, fields int) *Table {
	if fields <= 0 {
		panic("store: table needs at least one field")
	}
	return &Table{id: id, name: name, fields: fields, index: make(map[Key]uint32)}
}

// ID returns the table id.
func (t *Table) ID() TableID { return t.id }

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Fields returns the number of fields per row.
func (t *Table) Fields() int { return t.fields }

// Rows returns the number of materialized rows.
func (t *Table) Rows() int { return len(t.index) }

// Get returns field f of the row at key; absent rows read as zero.
func (t *Table) Get(k Key, f int) int64 {
	t.checkField(f)
	r, ok := t.index[k]
	if !ok {
		return 0
	}
	return t.slab[int(r)*t.fields+f]
}

// GetRow returns a copy of the full row (zeros if absent).
func (t *Table) GetRow(k Key) []int64 {
	out := make([]int64, t.fields)
	if r, ok := t.index[k]; ok {
		copy(out, t.slab[int(r)*t.fields:])
	}
	return out
}

// field returns the slab position of field f of the row at key,
// materializing the row.
func (t *Table) field(k Key, f int) *int64 {
	t.checkField(f)
	r, ok := t.index[k]
	if !ok {
		r = uint32(len(t.index))
		t.index[k] = r
		t.slab = append(t.slab, make([]int64, t.fields)...) // extends in place, no temporary
	}
	return &t.slab[int(r)*t.fields+f]
}

// Set stores v into field f of the row at key, materializing it.
func (t *Table) Set(k Key, f int, v int64) { *t.field(k, f) = v }

// Add increments field f by delta and returns the new value.
func (t *Table) Add(k Key, f int, delta int64) int64 {
	p := t.field(k, f)
	*p += delta
	return *p
}

// Keys returns all materialized keys in sorted order (tests and recovery).
func (t *Table) Keys() []Key {
	out := make([]Key, 0, len(t.index))
	for k := range t.index {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Walk calls fn for every materialized row in ascending key order. row
// aliases the table: it is valid until fn returns and must not be written.
func (t *Table) Walk(fn func(k Key, row []int64)) {
	for _, k := range t.Keys() {
		at := int(t.index[k]) * t.fields
		fn(k, t.slab[at:at+t.fields])
	}
}

func (t *Table) checkField(f int) {
	if f < 0 || f >= t.fields {
		panic(fmt.Sprintf("store: field %d out of range for table %s (%d fields)", f, t.name, t.fields))
	}
}

// Store is one node's collection of table partitions.
type Store struct {
	tables []*Table // indexed by TableID; nil where no table was created
}

// New creates an empty store.
func New() *Store { return &Store{} }

// CreateTable registers a table partition. It panics on duplicate ids —
// schema setup bugs should fail fast.
func (s *Store) CreateTable(id TableID, name string, fields int) *Table {
	if s.Lookup(id) != nil {
		panic(fmt.Sprintf("store: duplicate table id %d", id))
	}
	for len(s.tables) <= int(id) {
		s.tables = append(s.tables, nil)
	}
	t := NewTable(id, name, fields)
	s.tables[id] = t
	return t
}

// Lookup returns the partition for id, or nil when no such table was
// created. The serving path uses it to validate wire-supplied table ids
// without tripping Table's schema-mismatch panic.
func (s *Store) Lookup(id TableID) *Table {
	if int(id) >= len(s.tables) {
		return nil
	}
	return s.tables[id]
}

// TableIDs returns the ids of every created table in ascending order —
// the deterministic iteration a state digest needs.
func (s *Store) TableIDs() []TableID {
	ids := make([]TableID, 0, len(s.tables))
	for id, t := range s.tables {
		if t != nil {
			ids = append(ids, TableID(id))
		}
	}
	return ids
}

// Table returns the partition for id; it panics if the table was never
// created (a schema mismatch, not a runtime condition).
func (s *Store) Table(id TableID) *Table {
	t := s.Lookup(id)
	if t == nil {
		panic(fmt.Sprintf("store: unknown table id %d", id))
	}
	return t
}

// Clone returns a deep copy of the store: same tables, same rows, nothing
// shared with the original.
func (s *Store) Clone() *Store {
	c := &Store{tables: make([]*Table, len(s.tables))}
	for id, t := range s.tables {
		if t != nil {
			ct := *t
			ct.index, ct.slab = maps.Clone(t.index), slices.Clone(t.slab)
			c.tables[id] = &ct
		}
	}
	return c
}
