package core

import (
	"runtime"
	"testing"

	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestHeapBudget is the memory gate that fires on any runner: the switch
// model holds only the register slots the control plane wrote, and no
// run keeps a recovery image it cannot use. A new 820,800-slot switch
// costs its 48 slice headers; a cold cluster at the benchmark's size
// (YCSB-A, 8 nodes) measures 0.13 MB live on either engine, the p4db one
// holding its 400 offloaded slots, the noswitch one none. With the dense
// register file (6.3 MB per switch, and the same again for the
// post-offload baseline on every switch engine) they measured 12.7 and
// 6.4 MB.
func TestHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	t.Run("pisa.New", func(t *testing.T) {
		env := sim.NewEnv(1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sw := pisa.New(env, pisa.DefaultConfig())
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(sw)
		got := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("pisa.New(DefaultConfig()) allocated %d bytes (budget 16 KB)", got)
		if got > 16<<10 {
			t.Errorf("pisa.New(DefaultConfig()) allocated %d bytes, budget 16 KB", got)
		}
	})
	const budget = 5 << 20 // live bytes per cold cluster
	for _, engine := range []string{"p4db", "noswitch"} {
		t.Run(engine+"/ycsb-a", func(t *testing.T) {
			cfg := coldConfig(engine, false)
			gen, err := workload.ByName("ycsb-a", cfg.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			before := liveHeap()
			c := NewCluster(cfg, gen)
			live := int64(liveHeap()) - int64(before)
			slots := 0
			for _, vals := range c.Switch().Snapshot() {
				slots += len(vals)
			}
			t.Logf("%.2f MB live, %d register slots held", float64(live)/(1<<20), slots)
			if live > budget {
				t.Errorf("cold cluster holds %.2f MB live, budget %d MB", float64(live)/(1<<20), budget>>20)
			}
			switch {
			case c.Baseline() != nil:
				t.Error("a run with neither Durable nor a FaultPlan kept a recovery baseline")
			case engine == "noswitch" && slots != 0:
				t.Errorf("noswitch cluster holds %d register slots, want none", slots)
			case engine == "p4db" && (slots == 0 || slots > c.Layout().NumTuples()*4):
				t.Errorf("p4db cluster holds %d register slots for %d offloaded tuples", slots, c.Layout().NumTuples())
			}
		})
	}
	// A durable run keeps every record it logs: the growth of the live heap
	// across Run is mostly the logs, at the benchmark's sim_tpcc_durable
	// size (8 nodes, seed 42, 1 ms warm-up + 3 ms window). Logs held as
	// their framed bytes measure 8.4 MB here; as record structs carved
	// from slabs they measured 14.35 MB.
	t.Run("p4db/tpcc-durable", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Engine, cfg.Durable, cfg.Nodes, cfg.Seed = "p4db", true, 8, 42
		gen, err := workload.ByName("tpcc", cfg.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCluster(cfg, gen)
		before := liveHeap()
		c.Run(sim.Millisecond, 3*sim.Millisecond)
		grown := int64(liveHeap()) - int64(before)
		runtime.KeepAlive(c)
		t.Logf("Run grew the live heap by %.2f MB", float64(grown)/(1<<20))
		const runBudget = 10 << 20
		if grown > runBudget {
			t.Errorf("a durable TPC-C run grew the live heap by %.2f MB, budget %d MB", float64(grown)/(1<<20), runBudget>>20)
		}
	})
}
