package core

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestAllocBudgetPerCommit is the allocation gate that fires on any
// runner: the benchmark's three simulator configurations (8 nodes, default
// sizing) at reduced windows and a fixed seed, heap allocations inside
// Cluster.Run divided by committed transactions the way benchmark/sim.go
// takes allocs_per_commit. The simulation is deterministic, so the counts
// repeat per seed and a stray allocation on a commit path shows here where
// the wall-clock floors skip on a one-core runner.
//
// The budgets sit just above what these windows measure (0.42, 2.23 and
// 0.80): every 2PL commit and abort outcome — local or distributed, on the
// switch or on the nodes — allocates nothing per attempt, workers refill
// one Txn, rows materialise into their table's slab and log records into
// the log's chunks, so what remains is a cold cluster growing its pools
// (attempts, node slots, frames: a fixed amount, which is why the noswitch
// window is the longest), lock-table entries and the amortised growth of
// slabs, chunks and maps. noswitch aborts several times per commit under
// NO_WAIT, so a single closure per abort would put it past its budget.
func TestAllocBudgetPerCommit(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const warmup = sim.Millisecond
	for _, tc := range []struct {
		name, engine, workload string
		durable                bool
		measure                sim.Time
		budget                 float64
	}{
		{"p4db/ycsb-a", "p4db", "ycsb-a", false, 4 * sim.Millisecond, 0.5},
		{"p4db/tpcc/durable", "p4db", "tpcc", true, sim.Millisecond, 2.5},
		{"noswitch/ycsb-a", "noswitch", "ycsb-a", false, 24 * sim.Millisecond, 1.0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Engine, cfg.Durable, cfg.Nodes, cfg.Seed = tc.engine, tc.durable, 8, 42
			gen, err := workload.ByName(tc.workload, cfg.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			c := NewCluster(cfg, gen)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res := c.Run(warmup, tc.measure)
			runtime.ReadMemStats(&m1)

			commits := res.Counters.Committed()
			if commits == 0 {
				t.Fatal("no commits")
			}
			// Allocations span warm-up and window, commits only the window.
			share := float64(tc.measure) / float64(warmup+tc.measure)
			got := float64(m1.Mallocs-m0.Mallocs) * share / float64(commits)
			t.Logf("%.2f allocs/commit over %d commits (budget %.1f)", got, commits, tc.budget)
			if got > tc.budget {
				t.Errorf("%.2f allocs/commit, budget %.1f", got, tc.budget)
			}
		})
	}
}
