package hotset

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/layout"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// The reference preparation: the map-based pipeline the flat one replaced
// (tally map -> full sort -> per-transaction restriction -> by-id graph
// fold -> refinement that restricts every transaction again per
// iteration), kept here verbatim as the oracle. The flat pipeline must
// select the same tuples and place every one in the same slot.

type refHotSet struct {
	keys  map[store.GlobalKey]struct{}
	graph *layout.Graph
}

func refCountFreq(samples [][]Access) map[store.GlobalKey]int64 {
	freq := make(map[store.GlobalKey]int64)
	for _, txn := range samples {
		for _, a := range txn {
			freq[a.Key]++
		}
	}
	return freq
}

func refDetectTop(freq map[store.GlobalKey]int64, samples [][]Access, topK int) *refHotSet {
	order := make([]kf, 0, len(freq))
	for k, f := range freq {
		order = append(order, kf{k, f})
	}
	slices.SortFunc(order, kfCompare)
	if topK > len(order) {
		topK = len(order)
	}
	h := &refHotSet{
		keys:  make(map[store.GlobalKey]struct{}, topK),
		graph: layout.NewGraph(),
	}
	for _, e := range order[:topK] {
		h.keys[e.k] = struct{}{}
		h.graph.AddTuple(layout.TupleID(e.k))
	}
	var kept []layout.Access
	var remap []int
	for _, txn := range samples {
		kept = refRestrictInto(h.keys, txn, kept[:0], &remap)
		if len(kept) >= 2 {
			h.graph.AddTxn(kept)
		}
	}
	return h
}

func refRestrictInto(hot map[store.GlobalKey]struct{}, txn []Access, kept []layout.Access, remap *[]int) []layout.Access {
	if cap(*remap) < len(txn) {
		*remap = make([]int, len(txn))
	}
	rm := (*remap)[:len(txn)]
	for i := range rm {
		rm[i] = -1
	}
	for i, a := range txn {
		if _, ok := hot[a.Key]; !ok {
			continue
		}
		dep := -1
		if a.DependsOn >= 0 && a.DependsOn < i {
			dep = rm[a.DependsOn]
		}
		rm[i] = len(kept)
		kept = append(kept, layout.Access{Tuple: layout.TupleID(a.Key), DependsOn: dep})
	}
	return kept
}

func (h *refHotSet) restrict(txn []Access) []layout.Access {
	var remap []int
	return refRestrictInto(h.keys, txn, make([]layout.Access, 0, len(txn)), &remap)
}

func refRankFreqs(freq map[store.GlobalKey]int64) []kf {
	kept := make([]kf, 0, len(freq))
	for k, f := range freq {
		if f >= NoiseFloor {
			kept = append(kept, kf{k, f})
		}
	}
	slices.SortFunc(kept, kfCompare)
	return kept
}

func refDetectAuto(samples [][]Access, maxK int) *refHotSet {
	freq := refCountFreq(samples)
	return refDetectTop(freq, samples, autoCut(refRankFreqs(freq), maxK))
}

// refFromKeys is the old FromKeys with the duplicate fix applied the
// obvious way: first occurrences only, then rank and truncate.
func refFromKeys(keys []store.GlobalKey, samples [][]Access, maxK int) *refHotSet {
	freq := refCountFreq(samples)
	var decorated []kf
	for _, k := range keys {
		if !slices.ContainsFunc(decorated, func(e kf) bool { return e.k == k }) {
			decorated = append(decorated, kf{k, freq[k]})
		}
	}
	slices.SortFunc(decorated, kfCompare)
	if maxK < len(decorated) {
		decorated = decorated[:maxK]
	}
	h := &refHotSet{keys: make(map[store.GlobalKey]struct{}), graph: layout.NewGraph()}
	for _, e := range decorated {
		h.keys[e.k] = struct{}{}
		h.graph.AddTuple(layout.TupleID(e.k))
	}
	for _, txn := range samples {
		if kept := h.restrict(txn); len(kept) >= 2 {
			h.graph.AddTxn(kept)
		}
	}
	return h
}

func refRefineLayout(hs *refHotSet, samples [][]Access, spec layout.Spec) *layout.Layout {
	g := hs.graph
	l := layout.Optimal(g, spec)
	for iter := 0; iter < 4; iter++ {
		collisions := 0
		for _, txn := range samples {
			kept := hs.restrict(txn)
			if len(kept) < 2 {
				continue
			}
			byArray := make(map[[2]uint8]layout.TupleID, len(kept))
			for _, a := range kept {
				s, ok := l.SlotOf(a.Tuple)
				if !ok {
					continue
				}
				arr := [2]uint8{s.Stage, s.Array}
				if prev, clash := byArray[arr]; clash && prev != a.Tuple {
					collisions++
					for b := 0; b < 8; b++ {
						g.AddTxn([]layout.Access{{Tuple: prev, DependsOn: -1}, {Tuple: a.Tuple, DependsOn: -1}})
					}
				} else {
					byArray[arr] = a.Tuple
				}
			}
		}
		if collisions == 0 {
			break
		}
		l = layout.Optimal(g, spec)
	}
	return l
}

// prepMode is one way core.Cluster.detect drives the preparation.
type prepMode struct {
	name     string
	maxK     int               // capacity cap handed to detection
	explicit []store.GlobalKey // Config.ExplicitHot
	random   bool              // Config.RandomLayout
}

// checkAgainstOracle runs both pipelines on samples and requires identical
// hot keys, an identical slot for every tuple and an identical index.
func checkAgainstOracle(t *testing.T, samples [][]Access, spec layout.Spec, m prepMode) {
	t.Helper()
	var ref *refHotSet
	var hs *HotSet
	if len(m.explicit) > 0 {
		ref = refFromKeys(m.explicit, samples, m.maxK)
		hs = FromKeys(m.explicit, SampleOf(samples), m.maxK)
	} else {
		ref = refDetectAuto(samples, m.maxK)
		hs = SampleOf(samples).DetectAuto(m.maxK)
	}
	var want, got *layout.Layout
	if m.random {
		want = layout.Random(ref.graph, spec, sim.NewRNG(7))
		got = layout.Random(hs.Graph(), spec, sim.NewRNG(7))
	} else {
		want = refRefineLayout(ref, samples, spec)
		got = hs.Layout(spec)
	}

	wantKeys := make([]store.GlobalKey, 0, len(ref.keys))
	for k := range ref.keys {
		wantKeys = append(wantKeys, k)
	}
	slices.Sort(wantKeys)
	if !slices.Equal(hs.Keys(), wantKeys) {
		t.Fatalf("hot keys differ: got %d %v, want %d %v", hs.Size(), head(hs.Keys()), len(wantKeys), head(wantKeys))
	}
	if !slices.Equal(got.Tuples(), want.Tuples()) {
		t.Fatalf("laid-out tuples differ: got %d, want %d", got.NumTuples(), want.NumTuples())
	}
	ix := BuildIndex(hs, got)
	onSwitch := 0
	for _, k := range wantKeys {
		ws, wok := want.SlotOf(layout.TupleID(k))
		gs, gok := got.SlotOf(layout.TupleID(k))
		if ws != gs || wok != gok {
			t.Fatalf("tuple %v: slot %+v (placed=%v), want %+v (placed=%v)", k, gs, gok, ws, wok)
		}
		is, iok := ix.Lookup(k)
		if is != ws || iok != wok || ix.Spilled(k) == wok {
			t.Fatalf("tuple %v: index says slot %+v on-switch=%v spilled=%v, layout says %+v placed=%v", k, is, iok, ix.Spilled(k), ws, wok)
		}
		if wok {
			onSwitch++
		}
	}
	if ix.OnSwitchCount() != onSwitch || ix.SpilledCount() != len(wantKeys)-onSwitch {
		t.Fatalf("index holds %d on-switch + %d spilled, want %d + %d", ix.OnSwitchCount(), ix.SpilledCount(), onSwitch, len(wantKeys)-onSwitch)
	}
}

func head(ks []store.GlobalKey) []store.GlobalKey { return ks[:min(len(ks), 8)] }

// drawSample replays n transactions the way core.Cluster.detect does.
func drawSample(gen workload.Generator, seed uint64, n int) [][]Access {
	rng := sim.NewRNG(seed ^ 0x5EED)
	samples := make([][]Access, n)
	for i := range samples {
		txn := gen.Next(rng, netsim.NodeID(i%gen.Nodes()))
		for _, op := range txn.Ops {
			samples[i] = append(samples[i], Access{Key: op.TupleKey(), DependsOn: op.DependsOn})
		}
	}
	return samples
}

// TestFlatPipelineMatchesOracle is the differential test of the one-pass
// preparation: every registered generator (the YCSB ones also at Zipf
// 0.9) x seeds x the four ways a cluster build drives it.
func TestFlatPipelineMatchesOracle(t *testing.T) {
	const nodes = 8
	spec := specDefault
	seeds, txns := []uint64{42, 43, 1 << 40}, 20000
	if testing.Short() {
		seeds, txns = seeds[:1], 6000
	}
	type source struct {
		name  string
		theta float64
	}
	var sources []source
	for _, name := range workload.Names() {
		sources = append(sources, source{name, 0})
		if _, err := workload.ByNameTheta(name, nodes, 0.9); err == nil {
			sources = append(sources, source{name, 0.9})
		}
	}
	for _, src := range sources {
		for _, seed := range seeds {
			gen, err := workload.ByNameTheta(src.name, nodes, src.theta)
			if err != nil {
				t.Fatal(err)
			}
			samples := drawSample(gen, seed, txns)

			// The pinned list for the ExplicitHot mode: what detection
			// finds, backwards, with a duplicate and two never-sampled
			// keys, and a cap that truncates it by frequency.
			pinned := SampleOf(samples).DetectAuto(spec.Capacity()).Keys()
			slices.Reverse(pinned)
			pinned = append(pinned, k(1<<50), k(1<<50+1))
			if len(pinned) > 2 {
				pinned = append(pinned, pinned[0], pinned[1])
			}
			for _, m := range []prepMode{
				{name: "default", maxK: spec.Capacity()},
				{name: "hotsetcap", maxK: 24},
				{name: "explicit", maxK: len(pinned) * 2 / 3, explicit: pinned},
				{name: "random", maxK: spec.Capacity(), random: true},
			} {
				t.Run(fmt.Sprintf("%s/theta%g/seed%d/%s", src.name, src.theta, seed, m.name), func(t *testing.T) {
					checkAgainstOracle(t, samples, spec, m)
				})
			}
		}
	}
}

// TestFlatPipelineEdgeCases runs hand-built samples through both
// pipelines on a pipeline small enough that tuples must share arrays, so
// refinement has collisions to find.
func TestFlatPipelineEdgeCases(t *testing.T) {
	rep := func(n int, txns ...[]Access) [][]Access {
		var out [][]Access
		for i := 0; i < n; i++ {
			out = append(out, txns...)
		}
		return out
	}
	// Six hot tuples co-accessed in overlapping triples over two arrays.
	crowded := rep(10,
		[]Access{{k(1), -1}, {k(2), 0}, {k(3), 1}},
		[]Access{{k(3), -1}, {k(4), -1}, {k(5), 0}},
		[]Access{{k(5), -1}, {k(6), 0}, {k(1), 1}},
		[]Access{{k(2), -1}, {k(4), 0}, {k(6), 0}},
	)
	for name, samples := range map[string][][]Access{
		"empty":             nil,
		"empty-txns":        {{}, {}, {}},
		"one-access-txns":   rep(5, []Access{{k(1), -1}}, []Access{{k(2), -1}}, []Access{{k(3), -1}}),
		"repeated-tuple":    rep(5, []Access{{k(1), -1}, {k(2), 0}, {k(1), 1}, {k(1), 2}, {k(3), 0}}),
		"self-dependency":   rep(5, []Access{{k(1), 0}, {k(2), 1}, {k(3), 1}}),
		"dep-through-cold":  append(rep(5, []Access{{k(1), -1}, {k(9), 0}, {k(2), 1}, {k(3), 0}}), []Access{{k(8), -1}}),
		"dep-out-of-range":  rep(5, []Access{{k(1), 7}, {k(2), -3}, {k(3), 1 << 40}, {k(4), 2}}),
		"forward-dep":       rep(5, []Access{{k(1), 2}, {k(2), 0}, {k(3), 1}}),
		"crowded":           crowded,
		"crowded-plus-cold": append(crowded, []Access{{k(100), -1}, {k(1), 0}}, []Access{{k(101), -1}}),
	} {
		for _, spec := range []layout.Spec{
			{Stages: 2, ArraysPerStage: 1, SlotsPerArray: 4},
			{Stages: 3, ArraysPerStage: 2, SlotsPerArray: 2},
		} {
			pinned := []store.GlobalKey{k(3), k(1), k(3), k(77), k(2), k(1)}
			for _, m := range []prepMode{
				{name: "default", maxK: spec.Capacity()},
				{name: "cap2", maxK: 2},
				{name: "explicit", maxK: 3, explicit: pinned},
				{name: "random", maxK: spec.Capacity(), random: true},
			} {
				t.Run(fmt.Sprintf("%s/%dx%d/%s", name, spec.Stages, spec.ArraysPerStage, m.name), func(t *testing.T) {
					checkAgainstOracle(t, samples, spec, m)
				})
			}
		}
	}
}

// specDefault is pisa.DefaultConfig's geometry.
var specDefault = layout.Spec{Stages: 12, ArraysPerStage: 4, SlotsPerArray: 17100}
