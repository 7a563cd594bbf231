package layout

import (
	"fmt"

	"repro/internal/txnwire"
)

// HotOp is one operation of a hot transaction before compilation: which
// tuple it touches, what the switch should do, and which earlier operation
// it depends on (-1 for none). Dependencies constrain the emission order —
// a dependent operation cannot be hoisted before its producer.
type HotOp struct {
	Tuple     TupleID
	Op        txnwire.Op
	Operand   int64
	DependsOn int
}

// ErrNotLaidOut reports a hot operation on a tuple without a switch slot.
type ErrNotLaidOut struct{ Tuple TupleID }

func (e ErrNotLaidOut) Error() string {
	return fmt.Sprintf("layout: tuple %d has no switch slot", e.Tuple)
}

// Compiler translates hot transactions' operations into switch
// instructions, ordering them to minimize pipeline passes. It owns the
// scratch the translation needs, so a long-lived Compiler compiles without
// allocating once its buffers have grown to the largest transaction seen.
// The zero value is ready to use; a Compiler is not safe for concurrent use.
type Compiler struct {
	slots   []Slot
	deps    [][2]int // declared and same-tuple predecessor of each op, -1 for none
	emitted []bool
	instrs  []txnwire.Instr
	perm    []int
}

// Compile translates one hot transaction.
//
// The database node may reorder independent operations freely (their
// results are position-independent), but an operation must stay after the
// operation it depends on. Compile greedily emits, among the
// dependency-ready operations, the one whose slot extends the current pass
// (smallest position strictly after the previous instruction); when no
// ready operation fits, it starts a new pass. It returns the instructions,
// a permutation mapping instruction index -> original operation index
// (callers use it to route switch results back to their operations), and
// the number of passes the sequence needs.
//
// instrs and perm alias the Compiler's scratch: they are valid until the
// next Compile call on the same Compiler, and a caller that keeps them
// longer must copy them.
func (c *Compiler) Compile(ops []HotOp, l *Layout) (instrs []txnwire.Instr, perm []int, passes int, err error) {
	n := len(ops)
	if n == 0 {
		return nil, nil, 0, nil
	}
	if cap(c.slots) < n {
		c.slots = make([]Slot, n)
		c.deps = make([][2]int, n)
		c.emitted = make([]bool, n)
		c.instrs = make([]txnwire.Instr, 0, n)
		c.perm = make([]int, 0, n)
	}
	slots, deps, emitted := c.slots[:n], c.deps[:n], c.emitted[:n]
	for i, op := range ops {
		s, ok := l.SlotOf(op.Tuple)
		if !ok {
			return nil, nil, 0, ErrNotLaidOut{op.Tuple}
		}
		slots[i] = s
		emitted[i] = false

		// Effective dependencies: the declared one plus an implicit edge to
		// the latest earlier operation on the same tuple — program order on
		// a single tuple must never be reversed, whatever the slot order
		// says. Transactions are short (at most 255 operations, typically
		// 8), so a backward scan finds that operation without a map.
		deps[i] = [2]int{-1, -1}
		if d := op.DependsOn; d >= 0 && d < i {
			deps[i][0] = d
		}
		for j := i - 1; j >= 0; j-- {
			if ops[j].Tuple == op.Tuple {
				deps[i][1] = j
				break
			}
		}
	}

	instrs, perm = c.instrs[:0], c.perm[:0]
	lastPos := -1
	passes = 1
	for len(perm) < n {
		// Ready ops: dependencies already emitted.
		best := -1
		bestPos := 0
		fresh := -1 // best op if we must start a new pass
		freshPos := 0
		for i := 0; i < n; i++ {
			if emitted[i] {
				continue
			}
			if d := deps[i]; (d[0] >= 0 && !emitted[d[0]]) || (d[1] >= 0 && !emitted[d[1]]) {
				continue
			}
			p := slots[i].pos()
			if p > lastPos && (best == -1 || p < bestPos) {
				best, bestPos = i, p
			}
			if fresh == -1 || p < freshPos {
				fresh, freshPos = i, p
			}
		}
		pick := best
		if pick == -1 {
			if fresh == -1 {
				return nil, nil, 0, fmt.Errorf("layout: dependency cycle in hot transaction")
			}
			pick = fresh
			passes++
			lastPos = -1
		}
		emitted[pick] = true
		lastPos = slots[pick].pos()
		instrs = append(instrs, txnwire.Instr{
			Op:      ops[pick].Op,
			Stage:   slots[pick].Stage,
			Array:   slots[pick].Array,
			Index:   slots[pick].Index,
			Operand: ops[pick].Operand,
		})
		perm = append(perm, pick)
	}
	return instrs, perm, passes, nil
}

// Compile is the one-shot form of Compiler.Compile: it compiles on a
// throwaway Compiler, so the results belong to the caller.
func Compile(ops []HotOp, l *Layout) (instrs []txnwire.Instr, perm []int, passes int, err error) {
	var c Compiler
	return c.Compile(ops, l)
}
