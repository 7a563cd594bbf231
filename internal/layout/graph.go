// Package layout implements P4DB's declustered storage model (Section 4).
//
// Given the hot tuples and the hot transactions of a workload, the goal is
// to assign each tuple to one register array of one MAU stage such that as
// many transactions as possible execute in a single pipeline pass. The
// problem is modelled as a graph: tuples are nodes, tuples co-accessed by
// a transaction are connected by weighted edges, and ordering dependencies
// between operations (read-dependent writes) make edges directed. A
// capacity-constrained max-cut spreads co-accessed tuples over different
// register arrays; the cut directions then impose a topological order of
// the partitions onto pipeline stages.
//
// The paper uses the MQLib heuristic solver; this package substitutes a
// greedy multi-start construction with local-search refinement, which is
// sufficient to reach the paper's qualitative result (near-all single-pass
// transactions for SmallBank/YCSB under the optimal layout, many
// multi-pass transactions under a random layout).
package layout

import (
	"cmp"
	"fmt"
	"slices"
)

// TupleID identifies a hot tuple globally (table-qualified key).
type TupleID uint64

// Access is one operation of a transaction for layout purposes: which
// tuple it touches and which earlier operation of the same transaction it
// depends on (-1 for none). A dependency forces the dependent operation
// into a later pipeline stage (or a later pass).
type Access struct {
	Tuple     TupleID
	DependsOn int
}

type edgeInfo struct {
	weight int64 // co-access frequency
	fwd    int64 // weight of ordered dependencies u -> v
	rev    int64 // weight of ordered dependencies v -> u
}

// Graph is the transaction-access graph of Section 4.2. Tuples get dense
// 32-bit ids in registration order and everything below the by-id face
// (AddTuple / AddTxn) works on those: a transaction folds in as a list of
// dense ids, a pair is one machine word (two dense ids packed, the lower
// tuple id in the high half), and pair -> edge record is one probe of a
// flat open-addressed table — no Go map is touched per access or per pair.
// Edge records live in one growable pool, so the solver's adjacency pass
// walks contiguous slices.
type Graph struct {
	tuples []TupleID         // dense id -> tuple
	did    map[TupleID]int32 // tuple -> dense id; read by the by-id face only
	pairs  []int32           // open-addressed: epool index + 1 of the pair hashed here, 0 = empty
	shift  uint              // 64 - log2(len(pairs))
	epool  []edgeInfo
	edense []uint64 // epool index -> packed dense pair

	ids, deps []int32 // AddTxn's scratch
}

// NewGraph returns an empty access graph.
func NewGraph() *Graph {
	const initialBits = 10
	return &Graph{
		did:   make(map[TupleID]int32),
		pairs: make([]int32, 1<<initialBits),
		shift: 64 - initialBits,
	}
}

// AddTuple registers a tuple even if no transaction touches it (it still
// needs a slot on the switch) and returns its dense id.
func (g *Graph) AddTuple(t TupleID) int32 {
	if d, ok := g.did[t]; ok {
		return d
	}
	d := int32(len(g.tuples))
	g.did[t] = d
	g.tuples = append(g.tuples, t)
	return d
}

// AddTxn folds one transaction's accesses into the graph: every pair of
// distinct tuples gains co-access weight, and declared dependencies add
// directed weight. It resolves tuple ids to dense ids (registering unseen
// tuples) and hands them to AddTxnDense.
func (g *Graph) AddTxn(accesses []Access) {
	g.ids, g.deps = g.ids[:0], g.deps[:0]
	for i, a := range accesses {
		dep := int32(-1)
		if a.DependsOn >= 0 && a.DependsOn < i {
			dep = int32(a.DependsOn)
		}
		g.ids = append(g.ids, g.AddTuple(a.Tuple))
		g.deps = append(g.deps, dep)
	}
	g.AddTxnDense(g.ids, g.deps)
}

// AddTxnDense is AddTxn over dense ids as AddTuple returned them: deps[i]
// is the index of the earlier access ids[i] depends on, or negative.
// Neither slice is retained.
func (g *Graph) AddTxnDense(ids, deps []int32) {
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if a != b {
				g.edgeAt(a, b).weight++
			}
		}
		d := deps[i]
		if d < 0 || int(d) >= i || ids[d] == a {
			continue
		}
		if e := g.edgeAt(ids[d], a); g.tuples[ids[d]] < g.tuples[a] {
			e.fwd++
		} else {
			e.rev++
		}
	}
}

// Reinforce adds w to the co-access weight of the pair (a, b) of distinct
// dense ids — layout refinement's way of pulling apart two tuples the
// solver left in one register array.
func (g *Graph) Reinforce(a, b int32, w int64) { g.edgeAt(a, b).weight += w }

// edgeAt returns the edge record of a pair of distinct dense ids,
// canonicalized to ascending tuple id.
func (g *Graph) edgeAt(a, b int32) *edgeInfo {
	if g.tuples[a] > g.tuples[b] {
		a, b = b, a
	}
	packed := uint64(uint32(a))<<32 | uint64(uint32(b))
	i := g.slot(packed)
	if g.pairs[i] == 0 {
		if 2*len(g.epool) >= len(g.pairs) { // half full: double and re-seat every edge
			g.pairs = make([]int32, 2*len(g.pairs))
			g.shift--
			for e, p := range g.edense {
				g.pairs[g.slot(p)] = int32(e + 1)
			}
			i = g.slot(packed)
		}
		g.epool = append(g.epool, edgeInfo{})
		g.edense = append(g.edense, packed)
		g.pairs[i] = int32(len(g.epool))
	}
	return &g.epool[g.pairs[i]-1]
}

// slot returns packed's position in the pair table: where it sits, or the
// empty position it belongs in.
func (g *Graph) slot(packed uint64) int {
	mask := len(g.pairs) - 1
	i := int(packed * 0x9E3779B97F4A7C15 >> g.shift)
	for g.pairs[i] != 0 && g.edense[g.pairs[i]-1] != packed {
		i = (i + 1) & mask
	}
	return i
}

// sorted returns the registered tuples in ascending order and, for every
// dense id, its position in that order.
func (g *Graph) sorted() (tuples []TupleID, rank []int32) {
	order := make([]int32, len(g.tuples))
	for d := range order {
		order[d] = int32(d)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(g.tuples[a], g.tuples[b]) })
	tuples, rank = make([]TupleID, len(order)), make([]int32, len(order))
	for i, d := range order {
		tuples[i], rank[d] = g.tuples[d], int32(i)
	}
	return tuples, rank
}

// Tuples returns all registered tuples in deterministic (sorted) order.
func (g *Graph) Tuples() []TupleID {
	tuples, _ := g.sorted()
	return tuples
}

// NumTuples returns the number of registered tuples.
func (g *Graph) NumTuples() int { return len(g.tuples) }

// TotalEdgeWeight returns the sum of all co-access weights.
func (g *Graph) TotalEdgeWeight() int64 {
	var sum int64
	for i := range g.epool {
		sum += g.epool[i].weight
	}
	return sum
}

// endpoints returns the tuples edge e connects, lower tuple id first.
func (g *Graph) endpoints(e int) (u, v TupleID) {
	packed := g.edense[e]
	return g.tuples[packed>>32], g.tuples[uint32(packed)]
}

// String summarizes the graph for diagnostics.
func (g *Graph) String() string {
	return fmt.Sprintf("layout.Graph{tuples=%d edges=%d weight=%d}", len(g.tuples), len(g.epool), g.TotalEdgeWeight())
}

// maxCut partitions the tuples into k groups of at most capacity tuples
// each, heuristically maximizing the cut weight. It is a greedy placement
// in descending incident-weight order followed by first-improvement local
// search (node moves), the classic scheme the MQLib heuristics build on.
//
// The inner gain loops run over slices indexed by a tuple's position in
// sorted order, not over maps keyed by tuple id.
func (g *Graph) maxCut(k int, capacity int) map[TupleID]int {
	if k <= 0 {
		panic("layout: maxCut with k <= 0")
	}
	// Everything below indexes tuples by their position in sorted order;
	// rank maps a dense id to that position.
	tuples, rank := g.sorted()
	if len(tuples) > k*capacity {
		panic(fmt.Sprintf("layout: %d tuples exceed %d partitions x %d capacity", len(tuples), k, capacity))
	}
	n := len(tuples)

	// Dense adjacency for fast gain computation. The append order follows
	// edge-pool order, but every consumer below either sums a whole list
	// or looks up a unique pair weight, so results do not depend on it.
	type neighbor struct {
		other int32
		w     int64
	}
	adj := make([][]neighbor, n)
	for i, packed := range g.edense {
		w := g.epool[i].weight
		if w == 0 {
			continue
		}
		u, v := rank[packed>>32], rank[uint32(packed)]
		adj[u] = append(adj[u], neighbor{v, w})
		adj[v] = append(adj[v], neighbor{u, w})
	}

	// Order nodes by total incident weight, heaviest first, so that the
	// placement of high-contention tuples is decided while all partitions
	// are still open. Dense indices ascend with tuple ids (tuples is
	// sorted), so the tie-break matches the map-based ordering.
	incident := make([]int64, n)
	for i, ns := range adj {
		for _, nb := range ns {
			incident[i] += nb.w
		}
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if incident[a] != incident[b] {
			if incident[a] > incident[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})

	part := make([]int32, n)
	for i := range part {
		part[i] = -1 // unplaced
	}
	size := make([]int, k)

	// inW[t*k+p] is the total edge weight from t into partition p,
	// maintained incrementally as nodes are placed and moved. Reading it is
	// O(1) where the scan-based internalWeight was O(deg) — the scans (and
	// the linear edge-weight lookups below) dominated the offline
	// preparation step for TPC-C-sized graphs. The maintained values equal
	// the scan results exactly, so every placement, move and swap decision
	// is unchanged.
	inW := make([]int64, n*k)
	internalWeight := func(t int32, p int32) int64 {
		return inW[int(t)*k+int(p)]
	}
	// enter adds t's incident weights to its neighbors' partition-p
	// columns; shift moves them between columns when t migrates.
	enter := func(t int32, p int32) {
		for _, nb := range adj[t] {
			inW[int(nb.other)*k+int(p)] += nb.w
		}
	}
	shift := func(t int32, from, to int32) {
		for _, nb := range adj[t] {
			row := int(nb.other) * k
			inW[row+int(from)] -= nb.w
			inW[row+int(to)] += nb.w
		}
	}

	for _, t := range order {
		best, bestW := int32(-1), int64(1<<62)
		for p := int32(0); p < int32(k); p++ {
			if size[p] >= capacity {
				continue
			}
			w := internalWeight(t, p)
			// Prefer lower internal weight (maximizes cut); break ties
			// toward the emptiest partition for balance.
			if w < bestW || (w == bestW && (best == -1 || size[p] < size[best])) {
				best, bestW = p, w
			}
		}
		if best == -1 {
			panic("layout: no partition with free capacity")
		}
		part[t] = best
		size[best]++
		enter(t, best)
	}

	// Local search: single-node moves plus pairwise swaps. Moves alone
	// cannot improve capacity-tight instances (all partitions full), so a
	// swap pass exchanges a conflicted node with a node from a better
	// partition when that lowers total internal weight.
	// Adjacency lists sorted by neighbor index turn the pair-weight lookup
	// into a binary search (the append order above is meaningless, so
	// sorting loses nothing). Only the lists of conflicted nodes are ever
	// probed, so each list is sorted lazily on its first lookup.
	adjSorted := make([]bool, n)
	edgeW := func(a, b int32) int64 {
		if !adjSorted[a] {
			adjSorted[a] = true
			slices.SortFunc(adj[a], func(x, y neighbor) int { return int(x.other - y.other) })
		}
		ns := adj[a]
		lo, hi := 0, len(ns)
		for lo < hi {
			mid := (lo + hi) / 2
			if ns[mid].other < b {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(ns) && ns[lo].other == b {
			return ns[lo].w
		}
		return 0
	}
	for pass := 0; pass < 8; pass++ {
		improved := false
		for _, t := range order {
			cur := part[t]
			curW := internalWeight(t, cur)
			for p := int32(0); p < int32(k); p++ {
				if p == cur || size[p] >= capacity {
					continue
				}
				if internalWeight(t, p) < curW {
					part[t] = p
					size[cur]--
					size[p]++
					shift(t, cur, p)
					curW = internalWeight(t, p)
					cur = p
					improved = true
					break
				}
			}
			if curW == 0 {
				continue
			}
			// Swap pass for conflicted nodes: try exchanging t with a
			// node of each other partition.
			for _, u := range order {
				pu := part[u]
				if pu == cur || u == t {
					continue
				}
				w := edgeW(t, u)
				old := curW + internalWeight(u, pu)
				nw := internalWeight(t, pu) - w + internalWeight(u, cur) - w
				if nw < old {
					part[t], part[u] = pu, cur
					shift(t, cur, pu)
					shift(u, pu, cur)
					cur = pu
					curW = internalWeight(t, cur)
					improved = true
					if curW == 0 {
						break
					}
				}
			}
		}
		if !improved {
			break
		}
	}

	out := make(map[TupleID]int, n)
	for i, t := range tuples {
		out[t] = int(part[i])
	}
	return out
}
