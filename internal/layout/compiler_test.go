package layout

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/txnwire"
)

// referenceCompile is Compile as it stood before the scratch-owning
// Compiler replaced it: fresh slices per call, dependency lists as
// [][]int, the same-tuple predecessor found through a map. It is kept as
// the reference TestCompilerMatchesReference compares against.
func referenceCompile(ops []HotOp, l *Layout) (instrs []txnwire.Instr, perm []int, passes int, err error) {
	n := len(ops)
	if n == 0 {
		return nil, nil, 0, nil
	}
	slots := make([]Slot, n)
	for i, op := range ops {
		s, ok := l.SlotOf(op.Tuple)
		if !ok {
			return nil, nil, 0, ErrNotLaidOut{op.Tuple}
		}
		slots[i] = s
	}
	deps := make([][]int, n)
	lastOnTuple := make(map[TupleID]int, n)
	for i, op := range ops {
		if d := op.DependsOn; d >= 0 && d < i {
			deps[i] = append(deps[i], d)
		}
		if prev, ok := lastOnTuple[op.Tuple]; ok {
			deps[i] = append(deps[i], prev)
		}
		lastOnTuple[op.Tuple] = i
	}
	emitted := make([]bool, n)
	instrs = make([]txnwire.Instr, 0, n)
	perm = make([]int, 0, n)
	lastPos := -1
	passes = 1
	for len(perm) < n {
		best := -1
		bestPos := 0
		fresh := -1
		freshPos := 0
	scan:
		for i := 0; i < n; i++ {
			if emitted[i] {
				continue
			}
			for _, d := range deps[i] {
				if !emitted[d] {
					continue scan
				}
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

// compilerTestLayout places tuples 0..23 on a 4x2x3 pipeline at random, so
// arbitrary op lists hit same-array collisions and descending positions
// (forced extra passes) often.
func compilerTestLayout() *Layout {
	g := NewGraph()
	for i := TupleID(0); i < 24; i++ {
		g.AddTuple(i)
	}
	return Random(g, Spec{Stages: 4, ArraysPerStage: 2, SlotsPerArray: 3}, sim.NewRNG(11))
}

// TestCompilerMatchesReference drives ONE long-lived Compiler through 10k
// seeded random op lists — lengths 1..16 shrinking and growing, repeated
// tuples, dependency chains, forced multi-pass orders, now and then a
// tuple that is not laid out — and requires the decisions of the reference
// on every one. Scratch left over from a longer or failed compile must
// never leak into the next result.
func TestCompilerMatchesReference(t *testing.T) {
	l := compilerTestLayout()
	rng := sim.NewRNG(2024)
	var c Compiler
	multi, failed, repeated := 0, 0, 0
	for iter := 0; iter < 10000; iter++ {
		n := 1 + rng.Intn(16)
		ops := make([]HotOp, n)
		for i := range ops {
			ops[i] = HotOp{
				Tuple:     TupleID(rng.Intn(24)),
				Op:        txnwire.Op(rng.Intn(8)),
				Operand:   int64(rng.Intn(1000)) - 500,
				DependsOn: -1,
			}
			switch rng.Intn(4) {
			case 0: // chain onto the previous operation
				ops[i].DependsOn = i - 1
			case 1: // any earlier operation, sometimes out of range
				ops[i].DependsOn = rng.Intn(n+2) - 1
			}
			if i > 0 && rng.Intn(5) == 0 {
				ops[i].Tuple = ops[rng.Intn(i)].Tuple
				repeated++
			}
		}
		if rng.Intn(50) == 0 {
			ops[rng.Intn(n)].Tuple = 99 // not laid out
		}

		wantI, wantP, wantPasses, wantErr := referenceCompile(ops, l)
		gotI, gotP, gotPasses, gotErr := c.Compile(ops, l)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("iter %d: err = %v, reference %v", iter, gotErr, wantErr)
		}
		if wantErr != nil {
			failed++
			if gotI != nil || gotP != nil || gotPasses != 0 {
				t.Fatalf("iter %d: failed compile returned results", iter)
			}
			continue
		}
		if gotPasses != wantPasses || !reflect.DeepEqual(gotI, wantI) || !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("iter %d: ops %+v\n got %v %v passes=%d\nwant %v %v passes=%d",
				iter, ops, gotI, gotP, gotPasses, wantI, wantP, wantPasses)
		}
		if wantPasses > 1 {
			multi++
		}
	}
	if multi == 0 || failed == 0 || repeated == 0 {
		t.Fatalf("generator too tame: %d multi-pass, %d failed, %d repeated tuples", multi, failed, repeated)
	}
}

// TestCompileOneShotOwnsResults: the package-level wrapper compiles on a
// throwaway Compiler, so an earlier result survives later calls.
func TestCompileOneShotOwnsResults(t *testing.T) {
	l := compilerTestLayout()
	a := []HotOp{{Tuple: 1, Op: txnwire.OpAdd, Operand: 7, DependsOn: -1}, {Tuple: 2, Op: txnwire.OpRead, DependsOn: -1}}
	b := []HotOp{{Tuple: 3, Op: txnwire.OpWrite, Operand: 9, DependsOn: -1}, {Tuple: 4, Op: txnwire.OpRead, DependsOn: -1}}
	instrsA, permA, _, err := Compile(a, l)
	if err != nil {
		t.Fatal(err)
	}
	keptI := append([]txnwire.Instr(nil), instrsA...)
	keptP := append([]int(nil), permA...)
	if _, _, _, err := Compile(b, l); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(instrsA, keptI) || !reflect.DeepEqual(permA, keptP) {
		t.Fatal("a one-shot Compile result changed under a later call")
	}
}

// TestCompilerZeroAlloc pins the scratch-owning compiler at zero heap
// allocations once its buffers have grown: single-pass and multi-pass
// transactions, shorter ones after longer ones.
func TestCompilerZeroAlloc(t *testing.T) {
	l := compilerTestLayout()
	long := make([]HotOp, 16)
	for i := range long {
		long[i] = HotOp{Tuple: TupleID(23 - i), Op: txnwire.OpAdd, Operand: 1, DependsOn: i - 1}
	}
	short := []HotOp{
		{Tuple: 5, Op: txnwire.OpRead, DependsOn: -1},
		{Tuple: 5, Op: txnwire.OpWrite, Operand: 3, DependsOn: -1}, // same tuple: two passes
		{Tuple: 9, Op: txnwire.OpAdd, Operand: 2, DependsOn: 0},
	}
	var c Compiler
	if _, _, passes, err := c.Compile(long, l); err != nil || passes < 2 {
		t.Fatalf("priming compile: passes=%d err=%v", passes, err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, _, _, err := c.Compile(short, l); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := c.Compile(long, l); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Compiler.Compile allocates %.2f objects/op, want 0", avg)
	}
}
