package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/workload"
)

// coldSeed hands every cold build in this file a seed no earlier build
// used, so none of them hits the detection cache.
var coldSeed atomic.Uint64

func coldConfig(engine string, durable bool) Config {
	cfg := DefaultConfig()
	cfg.Engine, cfg.Durable, cfg.Nodes = engine, durable, 8
	cfg.Seed = 1<<32 + coldSeed.Add(1)
	return cfg
}

// TestSetupAllocBudget is the set-up gate that fires on any runner: heap
// allocations inside a cold core.NewCluster for the benchmark's three
// simulator configurations, divided by SampleTxns. The sample is drawn into
// one reused Txn and replayed into one flat arena, and populating a
// partition appends to its table's slab, so nothing allocates per sampled
// transaction, per access or per loaded row; what is left (0.04 on YCSB,
// 0.09 on TPC-C) is the solver, the amortised growth of arenas, slabs and
// row indexes, and the cluster's own fixtures. The map-based preparation
// measured 15.2 (TPC-C) and 4.8 (YCSB-A) here, the flat one with an
// allocating generator and a heap slice per row 3.85 and 2.04.
func TestSetupAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, tc := range []struct {
		name, engine, workload string
		durable                bool
		budget                 float64
	}{
		{"p4db/ycsb-a", "p4db", "ycsb-a", false, 0.1},
		{"p4db/tpcc/durable", "p4db", "tpcc", true, 0.2},
		{"noswitch/ycsb-a", "noswitch", "ycsb-a", false, 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := coldConfig(tc.engine, tc.durable)
			gen, err := workload.ByName(tc.workload, cfg.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			c := NewCluster(cfg, gen)
			runtime.ReadMemStats(&m1)
			c.Env().Shutdown()

			got := float64(m1.Mallocs-m0.Mallocs) / float64(cfg.SampleTxns)
			t.Logf("%.2f allocs per sampled txn, %.1f MB, %d GC cycles (budget %.1f)",
				got, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), m1.NumGC-m0.NumGC, tc.budget)
			if got > tc.budget {
				t.Errorf("%.2f allocs per sampled txn, budget %.1f", got, tc.budget)
			}
		})
	}
}

// BenchmarkNewClusterCold times a whole cluster build that misses the
// detection cache: populate, draw and prepare the sample, offload.
func BenchmarkNewClusterCold(b *testing.B) {
	for _, wl := range []string{"tpcc", "ycsb-a", "smallbank"} {
		b.Run(wl, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := coldConfig("p4db", false)
				gen, err := workload.ByName(wl, cfg.Nodes)
				if err != nil {
					b.Fatal(err)
				}
				NewCluster(cfg, gen).Env().Shutdown()
			}
		})
	}
}

// TestDetectCacheHoldsNoSample guards the rule that cached artifacts are
// copies: a build's sample arena and projection run to tens of MB, and the
// cache keeps one entry per distinct preparation, so an entry that
// referenced either would grow the live heap by that much per build. Eight
// differently-seeded TPC-C builds, dropped, may leave behind only their
// artifacts (a few hundred labels, slots and index entries each).
func TestDetectCacheHoldsNoSample(t *testing.T) {
	const builds = 8
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := liveHeap()
	misses := DetectCacheStats().Misses
	for i := 0; i < builds; i++ {
		cfg := coldConfig("p4db", false)
		cfg.SampleTxns = 30000
		gen, err := workload.ByName("tpcc", cfg.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		NewCluster(cfg, gen).Env().Shutdown()
	}
	if got := DetectCacheStats().Misses - misses; got != builds {
		t.Fatalf("%d of %d builds missed the cache; the test needs every one cached", got, builds)
	}
	perEntry := (liveHeap() - before) / builds
	t.Logf("live heap grew %d KB per cached preparation", perEntry>>10)
	if perEntry >= 1<<20 {
		t.Errorf("live heap grew %d KB per cached preparation, want < 1024: a cache entry pins its sample", perEntry>>10)
	}
}
