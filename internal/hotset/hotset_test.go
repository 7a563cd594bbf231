package hotset

import (
	"slices"
	"testing"

	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/store"
)

func k(n uint64) store.GlobalKey { return store.Global(1, store.Key(n)) }

// has reports whether key was selected as hot.
func has(h *HotSet, key store.GlobalKey) bool { return slices.Contains(h.Keys(), key) }

func TestDetectPicksMostFrequent(t *testing.T) {
	var samples [][]Access
	for i := 0; i < 100; i++ {
		samples = append(samples, []Access{{Key: k(1), DependsOn: -1}, {Key: k(2), DependsOn: -1}})
	}
	samples = append(samples, []Access{{Key: k(3), DependsOn: -1}})
	h := DetectAuto(samples, 2)
	if h.Size() != 2 || !has(h, k(1)) || !has(h, k(2)) || has(h, k(3)) {
		t.Fatalf("hot set = %v", h.Keys())
	}
}

func TestDetectCapLargerThanUniverse(t *testing.T) {
	h := DetectAuto([][]Access{{{Key: k(1), DependsOn: -1}, {Key: k(1), DependsOn: -1}, {Key: k(1), DependsOn: -1}}}, 10)
	if h.Size() != 1 {
		t.Fatalf("Size = %d", h.Size())
	}
}

func TestDetectGraphOnlyHotSubset(t *testing.T) {
	// txn touches hot 1,2 and cold 9; graph must connect 1-2 only.
	var samples [][]Access
	for i := 0; i < 10; i++ {
		samples = append(samples, []Access{
			{Key: k(1), DependsOn: -1},
			{Key: k(9), DependsOn: -1},
			{Key: k(2), DependsOn: -1},
		})
	}
	samples = append(samples, []Access{{Key: k(9), DependsOn: -1}})
	h := DetectAuto(samples, 2)
	g := h.Graph()
	if g.NumTuples() != 2 {
		t.Fatalf("graph tuples = %d, want 2", g.NumTuples())
	}
	if g.TotalEdgeWeight() != 10 {
		t.Fatalf("edge weight = %d, want 10", g.TotalEdgeWeight())
	}
}

func TestDetectDependencyRemapping(t *testing.T) {
	// hot(1) <- cold(9) <- hot(2): after dropping the cold access, the
	// chain collapses; access 2's dependency pointed at the dropped op so
	// it becomes independent (conservative), while a direct hot->hot
	// dependency is preserved.
	samples := [][]Access{}
	for i := 0; i < 5; i++ {
		samples = append(samples, []Access{
			{Key: k(1), DependsOn: -1},
			{Key: k(2), DependsOn: 0}, // direct hot->hot dep
		})
		samples = append(samples, []Access{
			{Key: k(1), DependsOn: -1},
			{Key: k(9), DependsOn: 0},
			{Key: k(2), DependsOn: 1}, // dep via cold: dropped
		})
	}
	h := DetectAuto(samples, 2)
	spec := layout.Spec{Stages: 2, ArraysPerStage: 1, SlotsPerArray: 1}
	l := layout.Optimal(h.Graph(), spec)
	s1, _ := l.SlotOf(layout.TupleID(k(1)))
	s2, _ := l.SlotOf(layout.TupleID(k(2)))
	if s1.Stage >= s2.Stage {
		t.Fatalf("direct dependency not honoured: %v vs %v", s1, s2)
	}
}

func TestBuildIndexSpill(t *testing.T) {
	h := FromKeys([]store.GlobalKey{k(0), k(1), k(2), k(3), k(4), k(5)}, nil, 6)
	// Layout only 4 of the 6 (capacity-capped subset).
	g := layout.NewGraph()
	for _, key := range h.Keys()[:4] {
		g.AddTuple(layout.TupleID(key))
	}
	l := layout.Optimal(g, layout.Spec{Stages: 2, ArraysPerStage: 2, SlotsPerArray: 1})
	ix := BuildIndex(h, l)
	if ix.OnSwitchCount() != 4 || ix.SpilledCount() != 2 {
		t.Fatalf("on-switch=%d spilled=%d", ix.OnSwitchCount(), ix.SpilledCount())
	}
	for _, key := range h.Keys() {
		onSwitch := ix.OnSwitch(key)
		spilled := ix.Spilled(key)
		if onSwitch == spilled {
			t.Fatalf("key %v: onSwitch=%v spilled=%v (must be exactly one)", key, onSwitch, spilled)
		}
		if onSwitch {
			if _, ok := ix.Lookup(key); !ok {
				t.Fatalf("indexed key %v has no slot", key)
			}
		}
	}
	if ix.OnSwitch(k(999)) || ix.Spilled(k(999)) {
		t.Fatal("cold key classified as hot")
	}
}

func TestDeterministicDetection(t *testing.T) {
	rng := sim.NewRNG(5)
	var samples [][]Access
	for i := 0; i < 200; i++ {
		samples = append(samples, []Access{
			{Key: k(uint64(rng.Intn(20))), DependsOn: -1},
			{Key: k(uint64(rng.Intn(20))), DependsOn: -1},
		})
	}
	a := DetectAuto(samples, 5).Keys()
	b := DetectAuto(samples, 5).Keys()
	if len(a) != len(b) {
		t.Fatal("non-deterministic size")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic hot set")
		}
	}
}
