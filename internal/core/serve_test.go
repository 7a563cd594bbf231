package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// serveTestConfig mirrors the engine parity grid's small-but-contended
// SmallBank setup.
func serveTestConfig(engineName string) (Config, workload.SmallBankConfig) {
	cfg := DefaultConfig()
	cfg.Engine = engineName
	cfg.Nodes = 2
	cfg.WorkersPerNode = 1
	cfg.SampleTxns = 4000
	cfg.Switch.SlotsPerArray = 64
	wl := workload.DefaultSmallBank(cfg.Nodes, 3)
	wl.AccountsPerNode = 100
	wl.DistPct = 50
	return cfg, wl
}

// TestDriverDeterministic: two identically configured clusters fed the
// same submission stream commit everything and digest identically.
func TestDriverDeterministic(t *testing.T) {
	for _, engineName := range []string{"noswitch", "p4db", "calvin"} {
		digests := make([]string, 2)
		for rep := 0; rep < 2; rep++ {
			cfg, wl := serveTestConfig(engineName)
			gen := workload.NewSmallBank(wl)
			drv := NewDriver(NewCluster(cfg, workload.NewSmallBank(wl)))
			src := sim.NewRNG(7)
			committed := 0
			for i := 0; i < 300; i++ {
				origin := netsim.NodeID(i % cfg.Nodes)
				txn := gen.Next(src, origin)
				drv.Submit(origin, txn, func(cls engine.Class, retries int) { committed++ })
				drv.Drain()
			}
			if committed != 300 || drv.Commits() != 300 || drv.Inflight() != 0 {
				t.Fatalf("%s rep %d: committed %d, drv commits %d, inflight %d",
					engineName, rep, committed, drv.Commits(), drv.Inflight())
			}
			if got := drv.Result().Counters.Committed(); got != 300 {
				t.Fatalf("%s rep %d: counters report %d commits, want 300", engineName, rep, got)
			}
			digests[rep] = drv.Cluster().StateDigest()
		}
		if digests[0] != digests[1] {
			t.Fatalf("%s: driver replay diverged:\n%s\n%s", engineName, digests[0], digests[1])
		}
	}
}

// TestDriverMatchesSerialExecute: the serving-mode submit path and a bare
// Engine.Execute chain produce identical final state for the same serial
// history — Submit adds accounting and pooling, not semantics.
func TestDriverMatchesSerialExecute(t *testing.T) {
	cfg, wl := serveTestConfig("noswitch")
	gen := workload.NewSmallBank(wl)

	drv := NewDriver(NewCluster(cfg, workload.NewSmallBank(wl)))
	src := sim.NewRNG(7)
	txns := make([]*workload.Txn, 300)
	for i := range txns {
		txns[i] = gen.Next(src, netsim.NodeID(i%cfg.Nodes))
	}
	for i, txn := range txns {
		drv.Submit(netsim.NodeID(i%cfg.Nodes), txn, func(engine.Class, int) {})
		drv.Drain()
	}
	viaDriver := drv.Cluster().StateDigest()

	sync := NewCluster(cfg, workload.NewSmallBank(wl))
	ctx := sync.EngineContext()
	i := 0
	var drive func()
	drive = func() {
		if i == len(txns) {
			return
		}
		sync.Engine().Execute(ctx, sync.Node(i%cfg.Nodes), txns[i], func(_ engine.Class, err error) {
			if err != nil {
				t.Errorf("sync txn %d: %v", i, err)
			}
			i++
			drive() // the next transaction starts from this one's k
		})
	}
	sync.Env().After(0, drive)
	sync.Env().Run()
	if i != len(txns) {
		t.Fatalf("serial chain stopped after %d of %d txns", i, len(txns))
	}
	viaSync := sync.StateDigest()

	if viaDriver != viaSync {
		t.Fatalf("submit path diverged from the serial Execute chain:\n%s\n%s", viaDriver, viaSync)
	}
}
