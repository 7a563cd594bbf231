package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestDurableLogImagePinned pins the bytes a durable run leaves in its
// write-ahead logs: TPC-C on p4db, N = 4, seed 42 — warm commits, so every
// node logs switch intents with back-filled results and cold redo records,
// and the run stops with intents still in flight. The hash was recorded
// with one heap object per record and per list; how the log lays records
// out in memory must not show in what Marshal writes.
func TestDurableLogImagePinned(t *testing.T) {
	const want = "50833a3d7e496702a62bb87085d51bf83809036917c48177eb3a7570e359c038"
	cfg := DefaultConfig()
	cfg.Engine, cfg.Durable, cfg.Nodes, cfg.Seed = "p4db", true, 4, 42
	cfg.SampleTxns = 20000
	gen, err := workload.ByName("tpcc", cfg.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(cfg, gen)
	c.Run(100*sim.Microsecond, 400*sim.Microsecond)

	h := sha256.New()
	records, inFlight := 0, 0
	for i := 0; i < cfg.Nodes; i++ {
		l := c.Node(i).Log()
		h.Write(l.Marshal())
		records += len(l.SwitchRecords()) + len(l.ColdRecords())
		for _, rec := range l.SwitchRecords() {
			if !rec.HasGID {
				inFlight++
			}
		}
	}
	if records < 2000 || inFlight == 0 {
		t.Fatalf("%d records, %d in flight: the run is too short to pin anything", records, inFlight)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("log image of %d records (%d in flight) hashes to %s, pinned %s", records, inFlight, got, want)
	}
}
