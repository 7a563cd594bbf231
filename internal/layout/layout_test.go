package layout

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/txnwire"
)

func smallSpec() Spec { return Spec{Stages: 3, ArraysPerStage: 1, SlotsPerArray: 4} }

func TestGraphAddTxnWeights(t *testing.T) {
	g := NewGraph()
	g.AddTxn([]Access{{Tuple: 1}, {Tuple: 2}, {Tuple: 3}})
	g.AddTxn([]Access{{Tuple: 1}, {Tuple: 2}})
	if g.NumTuples() != 3 {
		t.Fatalf("NumTuples = %d", g.NumTuples())
	}
	// pairs: (1,2) weight 2, (1,3) weight 1, (2,3) weight 1
	if w := g.TotalEdgeWeight(); w != 4 {
		t.Fatalf("TotalEdgeWeight = %d, want 4", w)
	}
}

func TestGraphDirectedEdges(t *testing.T) {
	g := NewGraph()
	// op1 on tuple 2 depends on op0 on tuple 1 => direction 1 -> 2
	g.AddTxn([]Access{{Tuple: 1}, {Tuple: 2, DependsOn: 0}})
	e := g.edgeAt(g.AddTuple(1), g.AddTuple(2))
	if e.fwd != 1 || e.rev != 0 {
		t.Fatalf("edge = %+v, want fwd=1", e)
	}
	// reversed tuple ids: op on tuple 1 depends on op on tuple 2
	g2 := NewGraph()
	g2.AddTxn([]Access{{Tuple: 2}, {Tuple: 1, DependsOn: 0}})
	e2 := g2.edgeAt(g2.AddTuple(1), g2.AddTuple(2))
	if e2.rev != 1 || e2.fwd != 0 {
		t.Fatalf("edge = %+v, want rev=1", e2)
	}
}

func TestMaxCutSeparatesCoAccessedTuples(t *testing.T) {
	// Figure 5 style: six tuples, heavy pairs must land in different
	// partitions so their transactions can be single-pass.
	g := NewGraph()
	for i := 0; i < 30; i++ {
		g.AddTxn([]Access{{Tuple: 1}, {Tuple: 4}})
		g.AddTxn([]Access{{Tuple: 2}, {Tuple: 5}})
		g.AddTxn([]Access{{Tuple: 3}, {Tuple: 6}})
	}
	part := g.maxCut(3, 2)
	for _, pair := range [][2]TupleID{{1, 4}, {2, 5}, {3, 6}} {
		if part[pair[0]] == part[pair[1]] {
			t.Fatalf("heavy pair %v placed together: %v", pair, part)
		}
	}
}

func TestMaxCutRespectsCapacity(t *testing.T) {
	g := NewGraph()
	for i := TupleID(0); i < 12; i++ {
		g.AddTuple(i)
	}
	part := g.maxCut(3, 4)
	size := map[int]int{}
	for _, p := range part {
		size[p]++
	}
	for p, s := range size {
		if s > 4 {
			t.Fatalf("partition %d has %d > 4 tuples", p, s)
		}
	}
}

func TestMaxCutOverCapacityPanics(t *testing.T) {
	g := NewGraph()
	for i := TupleID(0); i < 10; i++ {
		g.AddTuple(i)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic when tuples exceed capacity")
		}
	}()
	g.maxCut(3, 3)
}

// TestMaxCutQuality: for K partitions a random assignment cuts (1-1/K) of
// the weight in expectation; the greedy heuristic must cut at least half
// the total weight on random graphs.
func TestMaxCutQuality(t *testing.T) {
	rng := sim.NewRNG(42)
	for trial := 0; trial < 20; trial++ {
		g := NewGraph()
		n := rng.Intn(20) + 4
		for i := 0; i < n*3; i++ {
			a := TupleID(rng.Intn(n))
			b := TupleID(rng.Intn(n))
			if a == b {
				continue
			}
			g.AddTxn([]Access{{Tuple: a}, {Tuple: b}})
		}
		for i := TupleID(0); i < TupleID(n); i++ {
			g.AddTuple(i)
		}
		k := rng.Intn(3) + 2
		part := g.maxCut(k, (n+k-1)/k+1)
		if cut, total := g.cutWeight(part), g.TotalEdgeWeight(); total > 0 && cut*2 < total {
			t.Fatalf("cut %d < half of total %d (k=%d n=%d)", cut, total, k, n)
		}
	}
}

func TestOptimalAssignsAllTuplesUniqueSlots(t *testing.T) {
	g := NewGraph()
	for i := TupleID(0); i < 10; i++ {
		g.AddTuple(i)
	}
	g.AddTxn([]Access{{Tuple: 0}, {Tuple: 1}, {Tuple: 2}})
	spec := Spec{Stages: 4, ArraysPerStage: 1, SlotsPerArray: 4}
	l := Optimal(g, spec)
	if l.NumTuples() != 10 {
		t.Fatalf("NumTuples = %d", l.NumTuples())
	}
	seen := map[Slot]TupleID{}
	for _, tp := range l.Tuples() {
		s, ok := l.SlotOf(tp)
		if !ok {
			t.Fatalf("tuple %d lost", tp)
		}
		if int(s.Stage) >= spec.Stages || int(s.Array) >= spec.ArraysPerStage || int(s.Index) >= spec.SlotsPerArray {
			t.Fatalf("slot %v out of spec", s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("slot %v assigned to both %d and %d", s, prev, tp)
		}
		seen[s] = tp
	}
}

func TestOptimalRespectsDependencyDirection(t *testing.T) {
	// SmallBank-style chain: read A, then write B depending on it, many
	// times over. A's partition must land in an earlier stage than B's.
	g := NewGraph()
	for i := 0; i < 50; i++ {
		g.AddTxn([]Access{{Tuple: 100}, {Tuple: 200, DependsOn: 0}})
	}
	spec := Spec{Stages: 2, ArraysPerStage: 1, SlotsPerArray: 2}
	l := Optimal(g, spec)
	a, _ := l.SlotOf(100)
	b, _ := l.SlotOf(200)
	if a.pos() >= b.pos() {
		t.Fatalf("dependency direction violated: A at %v, B at %v", a, b)
	}
	// And the resulting transaction must compile to a single pass.
	instrs, _, passes, err := Compile([]HotOp{
		{Tuple: 100, Op: txnwire.OpRead, DependsOn: -1},
		{Tuple: 200, Op: txnwire.OpAdd, Operand: 1, DependsOn: 0},
	}, l)
	if err != nil || passes != 1 || len(instrs) != 2 {
		t.Fatalf("compile: passes=%d err=%v", passes, err)
	}
}

func TestOptimalConflictingDirectionsPicksMajority(t *testing.T) {
	// 10x A->B vs 3x B->A: layout must favour A before B.
	g := NewGraph()
	for i := 0; i < 10; i++ {
		g.AddTxn([]Access{{Tuple: 1}, {Tuple: 2, DependsOn: 0}})
	}
	for i := 0; i < 3; i++ {
		g.AddTxn([]Access{{Tuple: 2}, {Tuple: 1, DependsOn: 0}})
	}
	spec := Spec{Stages: 2, ArraysPerStage: 1, SlotsPerArray: 1}
	l := Optimal(g, spec)
	a, _ := l.SlotOf(1)
	b, _ := l.SlotOf(2)
	if a.pos() >= b.pos() {
		t.Fatalf("majority direction violated: A=%v B=%v", a, b)
	}
}

func TestOptimalBreaksDependencyCycles(t *testing.T) {
	// A->B, B->C, C->A with equal weights: a cycle that cannot be fully
	// honoured. The layout must still assign all tuples (some txns will
	// be multi-pass).
	g := NewGraph()
	for i := 0; i < 5; i++ {
		g.AddTxn([]Access{{Tuple: 1}, {Tuple: 2, DependsOn: 0}})
		g.AddTxn([]Access{{Tuple: 2}, {Tuple: 3, DependsOn: 0}})
		g.AddTxn([]Access{{Tuple: 3}, {Tuple: 1, DependsOn: 0}})
	}
	spec := Spec{Stages: 3, ArraysPerStage: 1, SlotsPerArray: 1}
	l := Optimal(g, spec)
	if l.NumTuples() != 3 {
		t.Fatalf("NumTuples = %d", l.NumTuples())
	}
}

func TestOptimalOverCapacityPanics(t *testing.T) {
	g := NewGraph()
	for i := TupleID(0); i < 100; i++ {
		g.AddTuple(i)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Optimal(g, smallSpec())
}

func TestRandomLayoutAssignsAll(t *testing.T) {
	g := NewGraph()
	for i := TupleID(0); i < 12; i++ {
		g.AddTuple(i)
	}
	l := Random(g, Spec{Stages: 4, ArraysPerStage: 1, SlotsPerArray: 4}, sim.NewRNG(1))
	if l.NumTuples() != 12 {
		t.Fatalf("NumTuples = %d", l.NumTuples())
	}
	seen := map[Slot]bool{}
	for _, tp := range l.Tuples() {
		s, _ := l.SlotOf(tp)
		if seen[s] {
			t.Fatalf("duplicate slot %v", s)
		}
		seen[s] = true
	}
}

func TestRandomLayoutCausesMorePasses(t *testing.T) {
	// Under the optimal layout the canonical 2-tuple dependent txn is
	// single-pass; averaged over random layouts, a meaningful share must
	// need 2+ passes — that gap is exactly Figure 16's experiment.
	g := NewGraph()
	type pair struct{ a, b TupleID }
	var pairs []pair
	for i := 0; i < 8; i++ {
		a, b := TupleID(i*2), TupleID(i*2+1)
		pairs = append(pairs, pair{a, b})
		for k := 0; k < 10; k++ {
			g.AddTxn([]Access{{Tuple: a}, {Tuple: b, DependsOn: 0}})
		}
	}
	spec := Spec{Stages: 4, ArraysPerStage: 1, SlotsPerArray: 4}
	countMulti := func(l *Layout) int {
		multi := 0
		for _, pr := range pairs {
			_, _, passes, err := Compile([]HotOp{
				{Tuple: pr.a, Op: txnwire.OpRead, DependsOn: -1},
				{Tuple: pr.b, Op: txnwire.OpAdd, Operand: 1, DependsOn: 0},
			}, l)
			if err != nil {
				t.Fatal(err)
			}
			if passes > 1 {
				multi++
			}
		}
		return multi
	}
	if m := countMulti(Optimal(g, spec)); m != 0 {
		t.Fatalf("optimal layout produced %d multi-pass txns, want 0", m)
	}
	rng := sim.NewRNG(7)
	totalMulti := 0
	for trial := 0; trial < 10; trial++ {
		totalMulti += countMulti(Random(g, spec, rng))
	}
	if totalMulti == 0 {
		t.Fatal("random layouts never produced a multi-pass txn (suspicious)")
	}
}

func TestCompileSamePassIndependentOps(t *testing.T) {
	g := NewGraph()
	for i := TupleID(0); i < 4; i++ {
		g.AddTuple(i)
	}
	spec := Spec{Stages: 4, ArraysPerStage: 1, SlotsPerArray: 1}
	l := Optimal(g, spec)
	ops := []HotOp{
		{Tuple: 3, Op: txnwire.OpRead, DependsOn: -1},
		{Tuple: 0, Op: txnwire.OpRead, DependsOn: -1},
		{Tuple: 2, Op: txnwire.OpRead, DependsOn: -1},
		{Tuple: 1, Op: txnwire.OpRead, DependsOn: -1},
	}
	instrs, perm, passes, err := Compile(ops, l)
	if err != nil {
		t.Fatal(err)
	}
	if passes != 1 {
		t.Fatalf("passes = %d, want 1 (independent ops freely reordered)", passes)
	}
	if len(instrs) != 4 || len(perm) != 4 {
		t.Fatalf("sizes wrong: %d %d", len(instrs), len(perm))
	}
	// perm must be a permutation of 0..3 and map instrs back to ops.
	seen := make([]bool, 4)
	for i, p := range perm {
		if seen[p] {
			t.Fatalf("perm not a permutation: %v", perm)
		}
		seen[p] = true
		s, _ := l.SlotOf(ops[p].Tuple)
		if instrs[i].Stage != s.Stage || instrs[i].Index != s.Index {
			t.Fatalf("instr %d does not match op %d", i, p)
		}
	}
}

func TestCompileSameTupleTwiceForcesTwoPasses(t *testing.T) {
	g := NewGraph()
	g.AddTuple(1)
	l := Optimal(g, Spec{Stages: 2, ArraysPerStage: 1, SlotsPerArray: 1})
	ops := []HotOp{
		{Tuple: 1, Op: txnwire.OpRead, DependsOn: -1},
		{Tuple: 1, Op: txnwire.OpWrite, Operand: 9, DependsOn: -1},
	}
	instrs, perm, passes, err := Compile(ops, l)
	if err != nil {
		t.Fatal(err)
	}
	if passes != 2 {
		t.Fatalf("passes = %d, want 2 (same register twice)", passes)
	}
	// Program order on the same tuple must be preserved: read first.
	if perm[0] != 0 || perm[1] != 1 || instrs[0].Op != txnwire.OpRead {
		t.Fatalf("same-tuple order reversed: perm=%v", perm)
	}
}

func TestCompileMissingTuple(t *testing.T) {
	g := NewGraph()
	g.AddTuple(1)
	l := Optimal(g, Spec{Stages: 1, ArraysPerStage: 1, SlotsPerArray: 1})
	_, _, _, err := Compile([]HotOp{{Tuple: 99, Op: txnwire.OpRead, DependsOn: -1}}, l)
	if _, ok := err.(ErrNotLaidOut); !ok {
		t.Fatalf("err = %v, want ErrNotLaidOut", err)
	}
}

func TestCompileEmpty(t *testing.T) {
	l := &Layout{slots: map[TupleID]Slot{}, spec: smallSpec()}
	instrs, perm, passes, err := Compile(nil, l)
	if err != nil || instrs != nil || perm != nil || passes != 0 {
		t.Fatalf("empty compile: %v %v %d %v", instrs, perm, passes, err)
	}
}

// TestCompileProperties: on random op lists and layouts, compiled output
// must (1) be a permutation of the input, (2) respect declared and
// same-tuple dependencies, (3) report a pass count consistent with the
// strictly-increasing-position rule.
func TestCompileProperties(t *testing.T) {
	rng := sim.NewRNG(99)
	f := func(seed uint16) bool {
		r := sim.NewRNG(uint64(seed))
		nTuples := r.Intn(6) + 2
		g := NewGraph()
		for i := TupleID(0); i < TupleID(nTuples); i++ {
			g.AddTuple(i)
		}
		spec := Spec{Stages: 4, ArraysPerStage: 2, SlotsPerArray: 2}
		var l *Layout
		if r.Bool(50) {
			l = Optimal(g, spec)
		} else {
			l = Random(g, spec, rng)
		}
		nOps := r.Intn(6) + 1
		ops := make([]HotOp, nOps)
		for i := range ops {
			dep := -1
			if i > 0 && r.Bool(30) {
				dep = r.Intn(i)
			}
			ops[i] = HotOp{Tuple: TupleID(r.Intn(nTuples)), Op: txnwire.OpAdd, Operand: 1, DependsOn: dep}
		}
		instrs, perm, passes, err := Compile(ops, l)
		if err != nil || len(instrs) != nOps || len(perm) != nOps {
			return false
		}
		// (1) permutation
		seen := make([]bool, nOps)
		for _, p := range perm {
			if p < 0 || p >= nOps || seen[p] {
				return false
			}
			seen[p] = true
		}
		// (2) dependencies respected
		posInOut := make([]int, nOps)
		for outIdx, p := range perm {
			posInOut[p] = outIdx
		}
		lastOnTuple := map[TupleID]int{}
		for i, op := range ops {
			if d := op.DependsOn; d >= 0 && posInOut[i] < posInOut[d] {
				return false
			}
			if prev, ok := lastOnTuple[op.Tuple]; ok && posInOut[i] < posInOut[prev] {
				return false
			}
			lastOnTuple[op.Tuple] = i
		}
		// (3) pass count consistent
		count, last := 1, -1
		for _, in := range instrs {
			p := int(in.Stage)<<8 | int(in.Array)
			if p <= last {
				count++
				last = -1
			}
			last = p
		}
		return count == passes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGraphFoldMatchesReference checks the dense fold (flat pair table,
// dense ids) against the definition of the access graph spelled out on a
// map keyed by tuple-id pairs — the body AddTxn had before — on random
// transactions with repeated tuples and in- and out-of-range dependencies.
func TestGraphFoldMatchesReference(t *testing.T) {
	type pair struct{ u, v TupleID } // u < v
	ref := map[pair]*edgeInfo{}
	refEdge := func(a, b TupleID) *edgeInfo {
		if a > b {
			a, b = b, a
		}
		if ref[pair{a, b}] == nil {
			ref[pair{a, b}] = &edgeInfo{}
		}
		return ref[pair{a, b}]
	}
	rng := sim.NewRNG(3)
	g := NewGraph()
	for n := 0; n < 3000; n++ {
		accesses := make([]Access, rng.Intn(7))
		for i := range accesses {
			accesses[i] = Access{Tuple: TupleID(rng.Intn(60) * 1000003 % 61), DependsOn: rng.Intn(9) - 2}
		}
		g.AddTxn(accesses)
		for i, a := range accesses {
			for j := i + 1; j < len(accesses); j++ {
				if b := accesses[j]; a.Tuple != b.Tuple {
					refEdge(a.Tuple, b.Tuple).weight++
				}
			}
			if a.DependsOn >= 0 && a.DependsOn < i {
				if dep := accesses[a.DependsOn]; dep.Tuple < a.Tuple {
					refEdge(dep.Tuple, a.Tuple).fwd++
				} else if dep.Tuple > a.Tuple {
					refEdge(dep.Tuple, a.Tuple).rev++
				}
			}
		}
	}
	if len(g.epool) != len(ref) {
		t.Fatalf("graph holds %d edges, reference %d", len(g.epool), len(ref))
	}
	for e := range g.epool {
		u, v := g.endpoints(e)
		if want := ref[pair{u, v}]; want == nil || g.epool[e] != *want {
			t.Fatalf("edge %d-%d = %+v, reference %+v", u, v, g.epool[e], want)
		}
	}
}

// cutWeight returns the total weight of edges whose endpoints are in
// different partitions under the given assignment.
func (g *Graph) cutWeight(part map[TupleID]int) int64 {
	var cut int64
	for e := range g.epool {
		if u, v := g.endpoints(e); part[u] != part[v] {
			cut += g.epool[e].weight
		}
	}
	return cut
}
