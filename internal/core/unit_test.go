package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestClassifyHotColdWarm(t *testing.T) {
	cfg := smallConfig("p4db")
	gen := ycsbGen(cfg, 50)
	c := NewCluster(cfg, gen)
	ctx := c.EngineContext()
	hotKey := gen.HotCandidates()[0]
	table, field, key := hotKey.SplitField()
	hotOp := workload.Op{Table: table, Key: key, Field: field, Kind: workload.Read, DependsOn: -1}
	coldOp := workload.Op{Table: table, Key: key + 1000000, Field: field, Kind: workload.Read, DependsOn: -1}
	if !c.HotIndex().OnSwitch(hotOp.TupleKey()) {
		t.Skip("first hot candidate not detected (sampling variance)")
	}
	if got := ctx.Classify(&workload.Txn{Ops: []workload.Op{hotOp}}); got != engine.ClassHot {
		t.Fatalf("classify(hot) = %v", got)
	}
	if got := ctx.Classify(&workload.Txn{Ops: []workload.Op{coldOp}}); got != engine.ClassCold {
		t.Fatalf("classify(cold) = %v", got)
	}
	if got := ctx.Classify(&workload.Txn{Ops: []workload.Op{hotOp, coldOp}}); got != engine.ClassWarm {
		t.Fatalf("classify(mixed) = %v", got)
	}
}

func TestGIDsInLogsAreUniqueAcrossNodes(t *testing.T) {
	cfg := smallConfig("p4db")
	cfg.Durable = true // the WAL retains records only on durable runs
	wcfg := workload.YCSBWorkloadA(cfg.Nodes)
	wcfg.HotTxnPct = 100
	wcfg.RowsPerNode = 1 << 20
	c := NewCluster(cfg, workload.NewYCSB(wcfg))
	c.Run(500*sim.Microsecond, 2*sim.Millisecond)
	seen := make(map[uint64]bool)
	completed := 0
	for i := 0; i < cfg.Nodes; i++ {
		for _, rec := range c.Node(i).Log().SwitchRecords() {
			if !rec.HasGID {
				continue
			}
			completed++
			if seen[rec.GID] {
				t.Fatalf("GID %d appears twice across node logs", rec.GID)
			}
			seen[rec.GID] = true
		}
	}
	if completed == 0 {
		t.Fatal("no completed switch records in logs")
	}
}

func TestUnknownEngineNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCluster accepted an unregistered engine name")
		}
	}()
	cfg := smallConfig("no-such-engine")
	NewCluster(cfg, ycsbGen(cfg, 50))
}
