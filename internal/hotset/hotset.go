// Package hotset implements P4DB's offline hot-tuple detection and the
// replicated hot index (Sections 3.1 and 6.1).
//
// Detection replays a representative sample of the workload statement by
// statement into a flat, interned Sample (sample.go), ranks the tuples
// above the noise floor by access frequency and selects the most frequent
// ones as the hot-set (bounded by the switch capacity). The sample is then
// projected onto the hot-set once, which yields the transaction-access
// graph the declustered layout is solved from and the per-transaction hot
// lists layout refinement replays (HotSet.Layout).
//
// At runtime every database node holds an Index replica: a small map from
// tuple key to its switch slot. It is consulted on every transaction to
// classify it hot/cold/warm and, for hot transactions, to build the packet
// header (single- vs multi-pass, required pipeline locks).
package hotset

import (
	"cmp"
	"slices"

	"repro/internal/layout"
	"repro/internal/store"
)

// Access is one statement of a sampled transaction: which tuple it touches
// and which earlier statement it depends on (-1 for none).
type Access struct {
	Key       store.GlobalKey
	DependsOn int
}

// HotSet is the result of offline detection. It owns the projection of its
// sample, so it is scratch of one preparation: what outlives it (hot
// labels, Layout, Index) is copied out and never references it.
type HotSet struct {
	keys  []store.GlobalKey // selection order; position = hot index = dense id in graph
	graph *layout.Graph
	// The sampled transactions with two or more hot accesses, as hot
	// indices back to back: transaction i is proj[ends[i-1]:ends[i]].
	proj []int32
	ends []uint32
}

// kf pairs a tuple with its sampled frequency for the detection sort.
// kfCompare orders by descending frequency, ascending key on ties — the
// exact total order the detectors have always used.
type kf struct {
	k store.GlobalKey
	f int64
}

func kfCompare(a, b kf) int {
	if a.f != b.f {
		if a.f > b.f {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.k, b.k)
}

// kfKeys returns the keys of the first n entries of a ranked list (all of
// them if it is shorter).
func kfKeys(ranked []kf, n int) []store.GlobalKey {
	keys := make([]store.GlobalKey, min(n, len(ranked)))
	for i := range keys {
		keys[i] = ranked[i].k
	}
	return keys
}

// DetectAuto selects the hot-set without a preset size. Tuples sampled
// fewer than three times are noise and never hot. Among the rest, sorted
// by descending frequency, the detector cuts at the last point where the
// frequency drops by 4x or more between neighbours — under the paper's
// skews the hot tuples sit on a plateau one to two orders of magnitude
// above the cold tail, so that gap is the hot/cold boundary. If no such
// gap exists, every frequently-sampled tuple is hot (e.g. a 100%-hot
// workload). The result is capped at maxK tuples (the switch capacity),
// keeping the most frequent; the remainder stays on the database nodes
// (Figure 17's spill path).
func (s *Sample) DetectAuto(maxK int) *HotSet {
	t := s.tally()
	var ranked []kf
	for _, e := range t.table {
		if e.count >= NoiseFloor {
			ranked = append(ranked, kf{e.key, int64(e.count)})
		}
	}
	slices.SortFunc(ranked, kfCompare)
	return s.project(t, kfKeys(ranked, autoCut(ranked, maxK)))
}

// DetectAuto is Sample.DetectAuto for a sample held as per-transaction
// slices.
func DetectAuto(samples [][]Access, maxK int) *HotSet {
	return SampleOf(samples).DetectAuto(maxK)
}

// NoiseFloor is the minimum sample tally for a key to count as a
// detection candidate; rarer keys are sampling noise, never hot.
const NoiseFloor = 3

// autoCut applies DetectAuto's plateau heuristic to an already-ranked
// list: cut at the last >=4x inter-neighbour drop, cap at maxK.
func autoCut(ranked []kf, maxK int) int {
	k := len(ranked)
	for i := len(ranked) - 1; i > 0; i-- {
		if ranked[i-1].f >= 4*ranked[i].f {
			k = i
			break
		}
	}
	if k > maxK {
		k = maxK
	}
	return k
}

// SelectTop is detection's selection without the plateau cut, over an
// already-folded frequency tally: every key above the noise floor,
// frequency-ranked, capped at maxK. Online re-detection uses it because a
// sliding window holds orders of magnitude fewer samples than the offline
// replay — a plateau cut calibrated for dense tallies truncates a sparse
// one to its first handful of keys, while the controller's
// sticky-resident policy already provides the stability the cut exists to
// buy.
func SelectTop(freq map[store.GlobalKey]int64, maxK int) []store.GlobalKey {
	ranked := make([]kf, 0, len(freq))
	for k, f := range freq {
		if f >= NoiseFloor {
			ranked = append(ranked, kf{k, f})
		}
	}
	slices.SortFunc(ranked, kfCompare)
	return kfKeys(ranked, maxK)
}

// FromKeys builds a hot-set from an a-priori known tuple list (the
// operator pinned the offload set explicitly): duplicates dropped, then
// truncated to the maxK most frequently sampled tuples. The access graph
// is still derived from the sample so the layout algorithm has co-access
// information; a nil sample gives an edgeless graph.
func FromKeys(keys []store.GlobalKey, s *Sample, maxK int) *HotSet {
	if s == nil {
		s = NewSample(0)
	}
	t := s.tally()
	ranked := make([]kf, len(keys))
	for i, k := range keys {
		ranked[i] = kf{k, int64(t.probe(k).count)}
	}
	slices.SortFunc(ranked, kfCompare)
	return s.project(t, kfKeys(slices.Compact(ranked), maxK)) // a key's duplicates sort next to it
}

// Size returns the number of hot tuples.
func (h *HotSet) Size() int { return len(h.keys) }

// Keys returns the hot tuples in deterministic (sorted) order.
func (h *HotSet) Keys() []store.GlobalKey {
	out := slices.Clone(h.keys)
	slices.Sort(out)
	return out
}

// Graph returns the transaction-access graph over the hot tuples, ready
// for the layout algorithm.
func (h *HotSet) Graph() *layout.Graph { return h.graph }

// Layout computes the declustered layout of the hot-set, including the
// profile-guided step of the layout algorithm: the max-cut only separates
// tuple pairs the sample happened to co-access, so after solving we replay
// the projected sample against the computed layout, find transactions
// whose tuples still collide in one register array (which would force a
// multi-pass execution), reinforce those edges and re-solve. A few
// iterations drive the single-pass fraction to (nearly) one, which is the
// declustered storage model's stated goal (Section 4.2).
func (h *HotSet) Layout(spec layout.Spec) *layout.Layout {
	l := layout.Optimal(h.graph, spec)
	arrayOf := make([]int32, len(h.keys)) // hot index -> register array
	// Per register array, the transaction that last claimed it and the
	// tuple it claimed it for. Two distinct tuples of one transaction in
	// one array cannot both execute in a single pass.
	claimedBy := make([]uint32, spec.NumArrays())
	owner := make([]int32, spec.NumArrays())
	txn := uint32(0)
	for iter := 0; iter < 4; iter++ {
		for i, k := range h.keys {
			s, _ := l.SlotOf(layout.TupleID(k))
			arrayOf[i] = int32(s.Stage)*int32(spec.ArraysPerStage) + int32(s.Array)
		}
		collisions, lo := 0, uint32(0)
		for _, hi := range h.ends {
			txn++
			for _, a := range h.proj[lo:hi] {
				arr := arrayOf[a]
				if claimedBy[arr] == txn && owner[arr] != a {
					collisions++
					// Reinforce the separating edge well above the
					// sampled co-access weights.
					h.graph.Reinforce(owner[arr], a, 8)
				} else {
					claimedBy[arr], owner[arr] = txn, a
				}
			}
			lo = hi
		}
		if collisions == 0 {
			break
		}
		l = layout.Optimal(h.graph, spec)
	}
	return l
}

// Index is the per-node replica of the hot-tuple index. It is small (a few
// thousand entries) so on a real node it lives in CPU caches; here the map
// lookup itself stands in for that cost.
type Index struct {
	slots   map[store.GlobalKey]layout.Slot
	spilled map[store.GlobalKey]struct{}
}

// BuildIndex combines the hot-set and the computed layout: hot tuples with
// a switch slot are indexed; hot tuples that did not fit (the layout was
// computed over a capacity-capped subset, Figure 17) are recorded as
// spilled and treated as cold at runtime.
func BuildIndex(h *HotSet, l *layout.Layout) *Index {
	ix := &Index{
		slots:   make(map[store.GlobalKey]layout.Slot, l.NumTuples()),
		spilled: make(map[store.GlobalKey]struct{}),
	}
	for _, k := range h.Keys() {
		if s, ok := l.SlotOf(layout.TupleID(k)); ok {
			ix.slots[k] = s
		} else {
			ix.spilled[k] = struct{}{}
		}
	}
	return ix
}

// Lookup returns the switch slot of key, if key is on the switch.
func (ix *Index) Lookup(k store.GlobalKey) (layout.Slot, bool) {
	s, ok := ix.slots[k]
	return s, ok
}

// OnSwitch reports whether key is stored on the switch.
func (ix *Index) OnSwitch(k store.GlobalKey) bool {
	_, ok := ix.slots[k]
	return ok
}

// Spilled reports whether key was detected hot but did not fit on the
// switch.
func (ix *Index) Spilled(k store.GlobalKey) bool {
	_, ok := ix.spilled[k]
	return ok
}

// Keys returns the on-switch keys in deterministic (sorted) order — the
// iteration the live-migration diff walks the old placement in.
func (ix *Index) Keys() []store.GlobalKey {
	out := make([]store.GlobalKey, 0, len(ix.slots))
	for k := range ix.slots {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// OnSwitchCount returns the number of indexed (on-switch) tuples.
func (ix *Index) OnSwitchCount() int { return len(ix.slots) }

// SpilledCount returns the number of spilled hot tuples.
func (ix *Index) SpilledCount() int { return len(ix.spilled) }
