package hotset

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/store"
)

func TestDetectAutoMixedWorkload(t *testing.T) {
	// 10 hot keys with ~100 accesses each, 500 cold keys with 1-2.
	rng := sim.NewRNG(1)
	var samples [][]Access
	for i := 0; i < 1000; i++ {
		samples = append(samples, []Access{{Key: k(uint64(rng.Intn(10))), DependsOn: -1}})
	}
	for i := 0; i < 700; i++ {
		samples = append(samples, []Access{{Key: k(uint64(1000 + rng.Intn(500))), DependsOn: -1}})
	}
	h := DetectAuto(samples, 1000)
	if h.Size() < 9 || h.Size() > 15 {
		t.Fatalf("detected %d hot keys, want ~10", h.Size())
	}
	for i := uint64(0); i < 10; i++ {
		if !has(h, k(i)) {
			t.Fatalf("hot key %d missed", i)
		}
	}
}

func TestDetectAutoUniformHotOnly(t *testing.T) {
	// Every key equally frequent and well above the noise floor: ALL are
	// hot (the 100%-hot workload case that a mean-based threshold gets
	// wrong).
	var samples [][]Access
	for rep := 0; rep < 50; rep++ {
		for i := uint64(0); i < 20; i++ {
			samples = append(samples, []Access{{Key: k(i), DependsOn: -1}})
		}
	}
	h := DetectAuto(samples, 1000)
	if h.Size() != 20 {
		t.Fatalf("detected %d, want all 20 uniformly-hot keys", h.Size())
	}
}

func TestDetectAutoPureColdIsEmpty(t *testing.T) {
	// Uniform access over a huge keyspace: nothing repeats 3 times, so
	// nothing is hot.
	rng := sim.NewRNG(2)
	var samples [][]Access
	for i := 0; i < 2000; i++ {
		samples = append(samples, []Access{{Key: k(rng.Uint64() % (1 << 40)), DependsOn: -1}})
	}
	h := DetectAuto(samples, 1000)
	if h.Size() != 0 {
		t.Fatalf("detected %d hot keys in a uniform workload", h.Size())
	}
}

func TestDetectAutoRespectsCap(t *testing.T) {
	var samples [][]Access
	for rep := 0; rep < 50; rep++ {
		for i := uint64(0); i < 20; i++ {
			samples = append(samples, []Access{{Key: k(i), DependsOn: -1}})
		}
	}
	h := DetectAuto(samples, 7)
	if h.Size() != 7 {
		t.Fatalf("cap ignored: %d", h.Size())
	}
}

func TestDetectAutoEmptySample(t *testing.T) {
	h := DetectAuto(nil, 10)
	if h.Size() != 0 {
		t.Fatalf("Size = %d", h.Size())
	}
}

func TestFromKeysTruncatesByFrequency(t *testing.T) {
	var samples [][]Access
	for i := 0; i < 30; i++ {
		samples = append(samples, []Access{{Key: k(1), DependsOn: -1}})
	}
	for i := 0; i < 10; i++ {
		samples = append(samples, []Access{{Key: k(2), DependsOn: -1}})
	}
	keys := []store.GlobalKey{k(1), k(2), k(3)}
	h := FromKeys(keys, SampleOf(samples), 2)
	if h.Size() != 2 || !has(h, k(1)) || !has(h, k(2)) || has(h, k(3)) {
		t.Fatalf("FromKeys kept %v", h.Keys())
	}
}

func TestFromKeysBuildsGraph(t *testing.T) {
	samples := [][]Access{
		{{Key: k(1), DependsOn: -1}, {Key: k(2), DependsOn: 0}},
		{{Key: k(1), DependsOn: -1}, {Key: k(9), DependsOn: -1}}, // 9 not pinned
	}
	h := FromKeys([]store.GlobalKey{k(1), k(2)}, SampleOf(samples), 10)
	if h.Graph().NumTuples() != 2 || h.Graph().TotalEdgeWeight() != 1 {
		t.Fatalf("graph = %v", h.Graph())
	}
}

// TestFromKeysDropsDuplicates: a key pinned twice must not eat a second
// row of the capacity.
func TestFromKeysDropsDuplicates(t *testing.T) {
	h := FromKeys([]store.GlobalKey{k(1), k(1), k(2)}, nil, 2)
	if !slices.Equal(h.Keys(), []store.GlobalKey{k(1), k(2)}) || h.Graph().NumTuples() != 2 {
		t.Fatalf("FromKeys kept %v", h.Keys())
	}
}
