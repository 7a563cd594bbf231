// Package workload implements the three OLTP benchmarks of the paper's
// evaluation — YCSB (A/B/C), SmallBank and TPC-C (NewOrder+Payment) — as
// transaction generators over the partitioned store.
//
// A generator owns the partitioning scheme (which node is home to which
// key), the skew (which tuples are hot and what fraction of accesses they
// receive) and the transaction logic expressed as a list of operations.
// The same operation list serves three purposes: the host DBMS executes it
// under 2PL, the hot-set detector replays it offline, and — for hot
// operations — the layout compiler turns it into switch instructions.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/txnwire"
)

// OpKind is the logical operation type, mirroring the switch opcode set so
// hot operations translate one-to-one into instructions.
type OpKind uint8

// Operation kinds.
const (
	// Read returns the field value.
	Read OpKind = iota
	// Write blindly stores Value.
	Write
	// Add increments by Value and returns the new value.
	Add
	// CondAddGE0 adds Value only if the result stays non-negative (a
	// constrained write); on failure it clears the transaction ok-flag.
	CondAddGE0
	// ReadClear reads the old value, adds it to the transaction
	// accumulator and zeroes the field.
	ReadClear
	// AddAcc adds accumulator+Value to the field.
	AddAcc
	// AddIfOK adds Value only if the ok-flag is still set.
	AddIfOK
)

// WireOp maps the kind to its switch opcode.
func (k OpKind) WireOp() txnwire.Op {
	switch k {
	case Read:
		return txnwire.OpRead
	case Write:
		return txnwire.OpWrite
	case Add:
		return txnwire.OpAdd
	case CondAddGE0:
		return txnwire.OpCondAddGE0
	case ReadClear:
		return txnwire.OpReadClear
	case AddAcc:
		return txnwire.OpAddAcc
	case AddIfOK:
		return txnwire.OpAddIfOK
	default:
		panic(fmt.Sprintf("workload: unknown op kind %d", k))
	}
}

// IsWrite reports whether the kind mutates state.
func (k OpKind) IsWrite() bool { return k != Read }

// Op is one operation of a transaction.
type Op struct {
	Table store.TableID
	Key   store.Key
	Field int
	Home  netsim.NodeID // partition owner of Key
	Kind  OpKind
	Value int64
	// DependsOn is the index of an earlier operation this one depends on
	// (-1 for none); it constrains switch instruction ordering and feeds
	// the directed edges of the layout graph.
	DependsOn int
}

// LockKey returns the row-granular lock identifier.
func (o Op) LockKey() store.GlobalKey { return store.Global(o.Table, o.Key) }

// TupleKey returns the field-qualified switch-tuple identifier.
func (o Op) TupleKey() store.GlobalKey { return store.GlobalField(o.Table, o.Field, o.Key) }

// Txn is one generated transaction. It belongs to whoever called NextInto
// on it: engines read it until they invoke the attempt's continuation and
// never after, so the owner may refill it for its next transaction as soon
// as the previous one committed.
type Txn struct {
	Label string // transaction type, e.g. "Payment"
	Ops   []Op
}

// reset empties the transaction for a refill of up to n operations. A
// buffer that is too small is replaced by one of exactly n, so a fresh Txn
// costs one allocation and a warmed one none.
func (t *Txn) reset(n int) {
	if cap(t.Ops) < n {
		t.Ops = make([]Op, 0, n)
	}
	t.Ops = t.Ops[:0]
}

// touches reports whether an operation already appended addresses row
// (table, key) — the generators' duplicate-key check, a scan because a
// transaction has at most a few dozen operations.
func (t *Txn) touches(table store.TableID, key store.Key) bool {
	for i := range t.Ops {
		if t.Ops[i].Key == key && t.Ops[i].Table == table {
			return true
		}
	}
	return false
}

// Distributed reports whether the transaction touches a node other than
// self.
func (t *Txn) Distributed(self netsim.NodeID) bool {
	for _, op := range t.Ops {
		if op.Home != self {
			return true
		}
	}
	return false
}

// LockRef is one row of a transaction's declared lock set: the partition
// owner, the row-granular lock key and the strongest access mode any of
// the transaction's operations needs on that row.
type LockRef struct {
	Home  netsim.NodeID
	Key   store.GlobalKey
	Write bool
}

// LockSet returns the transaction's declared row-level lock set in
// ascending global key order: one entry per distinct row, write-mode when
// any operation writes the row. Deterministic engines acquire exactly
// this set, in exactly this order, before executing a single operation —
// ordered acquisition keeps every waits-for chain acyclic, so conflicts
// resolve by waiting instead of deadlock detection or aborts.
func (t *Txn) LockSet() []LockRef {
	refs := make([]LockRef, 0, len(t.Ops))
	idx := make(map[store.GlobalKey]int, len(t.Ops))
	for _, op := range t.Ops {
		gk := op.LockKey()
		if i, ok := idx[gk]; ok {
			if op.Kind.IsWrite() {
				refs[i].Write = true
			}
			continue
		}
		idx[gk] = len(refs)
		refs = append(refs, LockRef{Home: op.Home, Key: gk, Write: op.Kind.IsWrite()})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Key < refs[j].Key })
	return refs
}

// SetDeclarer is implemented by generators that can promise, at generation
// time, whether a transaction's operation list is its exact read/write set.
// Deterministic engines need the full set before execution starts: when a
// benchmark's real-world counterpart computes keys from data it read
// (TPC-C's item and customer lookups), the generator answers false and the
// engine runs a reconnaissance pass (Calvin's optimistic lock location
// prediction) to discover the set before sequencing.
type SetDeclarer interface {
	// DeclaresKeySets reports whether every generated transaction's
	// operation list is an exact a-priori read/write-set declaration.
	DeclaresKeySets() bool
}

// Generator produces transactions for a specific benchmark configuration.
type Generator interface {
	// Name identifies the benchmark ("YCSB-A", "SmallBank", "TPC-C").
	Name() string
	// Nodes returns the number of database nodes the generator partitions
	// data over.
	Nodes() int
	// Populate creates this benchmark's tables on every node's store and
	// loads the node's partition (stores[i] belongs to node i).
	Populate(stores []*store.Store)
	// Home returns the partition owner of a key.
	Home(t store.TableID, k store.Key) netsim.NodeID
	// NextInto generates the next transaction for a worker on node self
	// into txn, truncating and refilling txn.Ops in place: a caller that
	// reuses one Txn generates without allocating.
	NextInto(rng *sim.RNG, self netsim.NodeID, txn *Txn)
	// Next is NextInto on a fresh Txn the caller may retain.
	Next(rng *sim.RNG, self netsim.NodeID) *Txn
}

// nextFresh is every generator's Next: NextInto on a new Txn.
func nextFresh(g Generator, rng *sim.RNG, self netsim.NodeID) *Txn {
	txn := new(Txn)
	g.NextInto(rng, self, txn)
	return txn
}
