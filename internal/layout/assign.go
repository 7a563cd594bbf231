package layout

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Slot is a tuple's physical location on the switch: a slot of a register
// array in an MAU stage.
type Slot struct {
	Stage uint8
	Array uint8
	Index uint32
}

// pos linearizes a slot's (stage, array) coordinate for pipeline ordering.
func (s Slot) pos() int { return int(s.Stage)<<8 | int(s.Array) }

// Spec describes the switch geometry the layout must fit into.
type Spec struct {
	Stages         int
	ArraysPerStage int
	SlotsPerArray  int
}

// NumArrays returns the number of register arrays in the pipeline.
func (s Spec) NumArrays() int { return s.Stages * s.ArraysPerStage }

// Capacity returns the number of tuple slots in the pipeline.
func (s Spec) Capacity() int { return s.NumArrays() * s.SlotsPerArray }

// arrayAt maps a pipeline-order array number to its (stage, array) pair.
func (s Spec) arrayAt(i int) (stage, array uint8) {
	return uint8(i / s.ArraysPerStage), uint8(i % s.ArraysPerStage)
}

// Layout maps hot tuples to switch slots. It is computed once during the
// offload step and then replicated (as the paper's hot index) to every
// database node.
type Layout struct {
	slots map[TupleID]Slot
	spec  Spec
}

// SlotOf returns the tuple's switch location, if it is laid out.
func (l *Layout) SlotOf(t TupleID) (Slot, bool) {
	s, ok := l.slots[t]
	return s, ok
}

// NumTuples returns the number of tuples placed on the switch.
func (l *Layout) NumTuples() int { return len(l.slots) }

// Spec returns the switch geometry the layout was computed for.
func (l *Layout) Spec() Spec { return l.spec }

// Tuples returns all laid-out tuples in deterministic order.
func (l *Layout) Tuples() []TupleID {
	out := make([]TupleID, 0, len(l.slots))
	for t := range l.slots {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Optimal computes the declustered layout of Section 4.3:
//
//  1. capacity-constrained max-cut of the access graph into one partition
//     per register array;
//  2. pairwise cut-direction resolution — if dependency edges between two
//     partitions point both ways, the minority direction is sacrificed
//     (those transactions become multi-pass);
//  3. topological ordering of partitions along the pipeline, breaking any
//     remaining cycles by dropping the lightest constraints;
//  4. slot assignment within each array.
//
// It panics if the graph holds more tuples than the spec's capacity;
// callers must cap the hot-set first (Figure 17's spill path).
func Optimal(g *Graph, spec Spec) *Layout {
	k := spec.NumArrays()
	if g.NumTuples() > spec.Capacity() {
		panic(fmt.Sprintf("layout: %d hot tuples exceed switch capacity %d", g.NumTuples(), spec.Capacity()))
	}
	part := g.maxCut(k, spec.SlotsPerArray)

	// Net dependency weight between partitions: dep[a][b] holds the total
	// weight of ordered edges whose source tuple lies in a and target in b.
	dep := make([][]int64, k)
	for i := range dep {
		dep[i] = make([]int64, k)
	}
	for i := range g.epool {
		u, v := g.endpoints(i)
		pu, pv := part[u], part[v]
		if pu == pv {
			continue
		}
		e := &g.epool[i]
		dep[pu][pv] += e.fwd
		dep[pv][pu] += e.rev
	}

	// Pairwise resolution: direction a->b survives iff dep[a][b] >=
	// dep[b][a]; the lighter opposing edges are removed (their
	// transactions will be multi-pass).
	var constraints []constraint
	for a := 0; a < k; a++ {
		for b := a + 1; b < k; b++ {
			switch {
			case dep[a][b] == 0 && dep[b][a] == 0:
				// bidirectional or unrelated: no ordering constraint
			case dep[a][b] >= dep[b][a]:
				constraints = append(constraints, constraint{a, b, dep[a][b] - dep[b][a]})
			default:
				constraints = append(constraints, constraint{b, a, dep[b][a] - dep[a][b]})
			}
		}
	}
	// Deterministic order: heavier constraints are harder to drop.
	sort.Slice(constraints, func(i, j int) bool {
		if constraints[i].w != constraints[j].w {
			return constraints[i].w > constraints[j].w
		}
		if constraints[i].from != constraints[j].from {
			return constraints[i].from < constraints[j].from
		}
		return constraints[i].to < constraints[j].to
	})

	order := topoOrder(k, constraints)

	// order[i] = partition placed at pipeline-order array i.
	l := &Layout{slots: make(map[TupleID]Slot, g.NumTuples()), spec: spec}
	next := make([]uint32, k) // next free slot per array position
	arrayOf := make([]int, k) // partition -> array position
	for i, p := range order {
		arrayOf[p] = i
	}
	for _, t := range g.Tuples() {
		ai := arrayOf[part[t]]
		stage, array := spec.arrayAt(ai)
		l.slots[t] = Slot{Stage: stage, Array: array, Index: next[ai]}
		next[ai]++
	}
	return l
}

// Extend evolves a layout incrementally: every surviving tuple keeps its
// slot, removed tuples free theirs, and added tuples fill free slots
// emptiest-array-first (spreading new hot tuples across the pipeline the
// way the max-cut spreads the offline set). The online adaptive
// controller migrates with this instead of re-running Optimal so that
// unchanged tuples never move — transactions touching only them can keep
// executing right through a migration fence. It panics if the additions
// exceed the remaining capacity; callers cap the hot-set first.
func (l *Layout) Extend(removed, added []TupleID) *Layout {
	nl := &Layout{slots: make(map[TupleID]Slot, len(l.slots)+len(added)), spec: l.spec}
	for t, s := range l.slots {
		nl.slots[t] = s
	}
	for _, t := range removed {
		delete(nl.slots, t)
	}
	k := l.spec.NumArrays()
	occ := make([]int, k)
	used := make([][]bool, k)
	for i := range used {
		used[i] = make([]bool, l.spec.SlotsPerArray)
	}
	for _, s := range nl.slots {
		ai := int(s.Stage)*l.spec.ArraysPerStage + int(s.Array)
		occ[ai]++
		used[ai][s.Index] = true
	}
	adds := make([]TupleID, 0, len(added))
	for _, t := range added {
		if _, dup := nl.slots[t]; !dup {
			adds = append(adds, t)
		}
	}
	sort.Slice(adds, func(i, j int) bool { return adds[i] < adds[j] })
	scan := make([]int, k) // per-array lowest possibly-free index
	for _, t := range adds {
		best := -1
		for ai := 0; ai < k; ai++ {
			if occ[ai] < l.spec.SlotsPerArray && (best < 0 || occ[ai] < occ[best]) {
				best = ai
			}
		}
		if best < 0 {
			panic(fmt.Sprintf("layout: Extend overflowed switch capacity %d", l.spec.Capacity()))
		}
		idx := scan[best]
		for used[best][idx] {
			idx++
		}
		used[best][idx] = true
		scan[best] = idx + 1
		occ[best]++
		stage, array := l.spec.arrayAt(best)
		nl.slots[t] = Slot{Stage: stage, Array: array, Index: uint32(idx)}
	}
	return nl
}

// constraint is a pipeline-ordering requirement between two partitions:
// from must be placed in an earlier register array than to, with weight w
// measuring how much access-order traffic the constraint protects.
type constraint struct {
	from, to int
	w        int64
}

// topoOrder orders k partitions respecting as many constraints as
// possible. Constraints are added greedily in descending weight, skipping
// any that would close a cycle; a Kahn topological sort of the surviving
// DAG yields the pipeline order.
func topoOrder(k int, constraints []constraint) []int {
	adj := make([][]int, k)
	indeg := make([]int, k)
	reaches := func(from, to int) bool {
		// DFS: is `to` reachable from `from`?
		stack := []int{from}
		seen := make([]bool, k)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, adj[n]...)
		}
		return false
	}
	for _, c := range constraints {
		if reaches(c.to, c.from) {
			continue // would close a cycle: drop (those txns go multi-pass)
		}
		adj[c.from] = append(adj[c.from], c.to)
		indeg[c.to]++
	}
	// Kahn with deterministic tie-breaking (lowest partition id first).
	var order []int
	ready := make([]int, 0, k)
	for i := 0; i < k; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	for len(ready) > 0 {
		sort.Ints(ready)
		n := ready[0]
		ready = ready[1:]
		order = append(order, n)
		for _, m := range adj[n] {
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	if len(order) != k {
		panic("layout: topological sort incomplete despite cycle breaking")
	}
	return order
}

// Random assigns tuples to arrays round-robin in hash order, ignoring the
// access graph entirely — the "worst case" layout of the Figure 16
// experiment.
func Random(g *Graph, spec Spec, rng *sim.RNG) *Layout {
	if g.NumTuples() > spec.Capacity() {
		panic(fmt.Sprintf("layout: %d hot tuples exceed switch capacity %d", g.NumTuples(), spec.Capacity()))
	}
	k := spec.NumArrays()
	l := &Layout{slots: make(map[TupleID]Slot, g.NumTuples()), spec: spec}
	next := make([]uint32, k)
	tuples := g.Tuples()
	perm := rng.Perm(len(tuples))
	for i, pi := range perm {
		ai := i % k
		if int(next[ai]) >= spec.SlotsPerArray {
			panic("layout: random layout overflowed an array")
		}
		stage, array := spec.arrayAt(ai)
		l.slots[tuples[pi]] = Slot{Stage: stage, Array: array, Index: next[ai]}
		next[ai]++
	}
	return l
}
