package core

import (
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/layout"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Migration-correctness tests for the online adaptive layout. The oracle
// is LogicalDigest: placement-independent database state. An adaptive
// cluster that executed the same committed history as a static one must
// digest equal no matter how many tuples live migration moved — a lost,
// duplicated or stale value on any promote/demote path breaks equality.

// adaptiveDriftConfig is the shared small-but-contended drifting setup:
// a rotating hot set at Zipf skew, small switch arrays, a fast
// re-detection tick so a short driver stream spans many fences.
func adaptiveDriftConfig(adaptive bool) (Config, workload.DriftConfig) {
	cfg := DefaultConfig()
	cfg.Engine = "p4db"
	cfg.Nodes = 2
	cfg.WorkersPerNode = 1
	cfg.SampleTxns = 4000
	cfg.Switch.SlotsPerArray = 64
	cfg.Adaptive = adaptive
	cfg.AdaptInterval = 10 * sim.Microsecond

	wl := workload.DefaultDrift(cfg.Nodes, workload.DriftRotate, 200*sim.Microsecond)
	wl.RowsPerNode = 4096 // small domain: real write-write contention
	wl.Zipfian = true
	wl.Theta = 0.9
	return cfg, wl
}

// adaptiveTestStream pre-generates one drifting submission stream with a
// manual clock: the first half is drawn in phase 0, the second half in
// phase 1, so the hot set shifts exactly mid-stream regardless of how
// long either cluster takes to execute it.
func adaptiveTestStream(wl workload.DriftConfig, count int) []*workload.Txn {
	gen := workload.NewDrift(wl)
	var now sim.Time
	gen.SetClock(func() sim.Time { return now })
	rng := sim.NewRNG(11)
	txns := make([]*workload.Txn, count)
	for i := range txns {
		if i == count/2 {
			now = wl.PhaseLen // shift to phase 1
		}
		txns[i] = gen.Next(rng, netsim.NodeID(i%wl.NumNodes))
	}
	return txns
}

// driveSerial submits the stream one transaction at a time (each commits
// before the next is submitted, so the committed history is the same
// serial one on every cluster) and returns the final results.
func driveSerial(t *testing.T, cfg Config, wl workload.DriftConfig, txns []*workload.Txn) (*Cluster, *Result) {
	t.Helper()
	c := NewCluster(cfg, workload.NewDrift(wl))
	drv := NewDriver(c)
	committed := 0
	for i, txn := range txns {
		drv.Submit(netsim.NodeID(i%cfg.Nodes), txn, func(engine.Class, int) { committed++ })
		drv.Drain()
	}
	if committed != len(txns) || drv.Inflight() != 0 {
		t.Fatalf("committed %d of %d, inflight %d", committed, len(txns), drv.Inflight())
	}
	return c, drv.Result()
}

// TestAdaptiveMigrationSerializability: the same serial drifting history
// executed on an adaptive cluster (whose re-detection fences, drains and
// migrates concurrently with the stream — ticks land mid-transaction, so
// fences span in-flight attempts) and on a static cluster must leave
// identical logical database state, while the adaptive run actually
// migrated.
func TestAdaptiveMigrationSerializability(t *testing.T) {
	cfgA, wl := adaptiveDriftConfig(true)
	cfgS, _ := adaptiveDriftConfig(false)
	txns := adaptiveTestStream(wl, 600)

	ca, ra := driveSerial(t, cfgA, wl, txns)
	cs, _ := driveSerial(t, cfgS, wl, txns)

	if ra.Migrations == 0 || ra.Promoted == 0 {
		t.Fatalf("adaptive run never migrated (migrations=%d promoted=%d): the test exercised nothing", ra.Migrations, ra.Promoted)
	}
	if a, s := ca.LogicalDigest(), cs.LogicalDigest(); a != s {
		t.Fatalf("adaptive cluster diverged from static after the same serial history:\n  adaptive: %s\n  static:   %s\n(migrations=%d promoted=%d demoted=%d)",
			a, s, ra.Migrations, ra.Promoted, ra.Demoted)
	}
}

// TestAdaptivePromoteDemoteRoundTrip forces capacity pressure (HotSetCap
// far below the shifted hot set) so re-detection must demote resident
// tuples to make room — every migration round-trips register values back
// through the owner-node stores. State must still match the static run:
// a demote that loses the register's current value, or a promote that
// re-reads a stale store value, breaks the digest.
func TestAdaptivePromoteDemoteRoundTrip(t *testing.T) {
	cfgA, wl := adaptiveDriftConfig(true)
	cfgS, _ := adaptiveDriftConfig(false)
	cfgA.HotSetCap = 24
	cfgS.HotSetCap = 24
	txns := adaptiveTestStream(wl, 600)

	ca, ra := driveSerial(t, cfgA, wl, txns)
	cs, _ := driveSerial(t, cfgS, wl, txns)

	if ra.Demoted == 0 || ra.Promoted == 0 {
		t.Fatalf("capacity pressure never forced a demotion (promoted=%d demoted=%d): the round-trip path is untested", ra.Promoted, ra.Demoted)
	}
	if a, s := ca.LogicalDigest(), cs.LogicalDigest(); a != s {
		t.Fatalf("promote/demote round trip corrupted state:\n  adaptive: %s\n  static:   %s\n(migrations=%d promoted=%d demoted=%d)",
			a, s, ra.Migrations, ra.Promoted, ra.Demoted)
	}
}

// TestAdaptiveConcurrentFenceDeterministic floods the adaptive cluster
// with concurrent batches (25 transactions in flight at once) so fences
// rise with real in-flight attempts to drain and retries arriving while
// fencing park at the gate. Two identically seeded runs must commit
// everything and digest identically — and the fence path must actually
// have parked someone.
func TestAdaptiveConcurrentFenceDeterministic(t *testing.T) {
	digests := make([]string, 2)
	var res *Result
	for rep := 0; rep < 2; rep++ {
		cfg, wl := adaptiveDriftConfig(true)
		txns := adaptiveTestStream(wl, 600)
		c := NewCluster(cfg, workload.NewDrift(wl))
		drv := NewDriver(c)
		committed := 0
		for i := 0; i < len(txns); i += 25 {
			end := i + 25
			if end > len(txns) {
				end = len(txns)
			}
			for j := i; j < end; j++ {
				drv.Submit(netsim.NodeID(j%cfg.Nodes), txns[j], func(engine.Class, int) { committed++ })
			}
			drv.Drain()
		}
		if committed != len(txns) || drv.Inflight() != 0 {
			t.Fatalf("rep %d: committed %d of %d, inflight %d — a fence lost a submission", rep, committed, len(txns), drv.Inflight())
		}
		res = drv.Result()
		digests[rep] = c.StateDigest()
	}
	if res.Migrations == 0 {
		t.Fatal("concurrent stream never migrated: the fence was not exercised")
	}
	if res.FenceWaits == 0 {
		t.Fatal("no execution ever parked at a fence: raise the contention or shrink the interval")
	}
	if digests[0] != digests[1] {
		t.Fatalf("two identical adaptive runs diverged:\n%s\n%s", digests[0], digests[1])
	}
}

// TestAdaptivePromotionPastHighWaterMark: the offload holds a single
// tuple and the hot-set cap is tiny, so the phase-0 hot set is promoted
// into register slots the offload never wrote — growing the arrays from
// the control plane — and the mid-stream shift demotes those tuples again,
// carrying their register values back to the stores. Through all of it
// the adaptive cluster must keep the static one's logical state.
func TestAdaptivePromotionPastHighWaterMark(t *testing.T) {
	cfgA, wl := adaptiveDriftConfig(true)
	cfgS, _ := adaptiveDriftConfig(false)
	for _, cfg := range []*Config{&cfgA, &cfgS} {
		cfg.Switch.Stages, cfg.Switch.ArraysPerStage = 2, 2
		cfg.HotSetCap = 4
	}
	txns := adaptiveTestStream(wl, 1200)
	cfgA.ExplicitHot = NewCluster(cfgS, workload.NewDrift(wl)).HotIndex().Keys()[:1]

	ca := NewCluster(cfgA, workload.NewDrift(wl))
	mark := ca.Switch().Snapshot()
	aps := cfgA.Switch.ArraysPerStage
	var grown []layout.TupleID // tuples ever placed past the offload's mark
	drv := NewDriver(ca)
	for i, txn := range txns {
		drv.Submit(netsim.NodeID(i%cfgA.Nodes), txn, func(engine.Class, int) {})
		drv.Drain()
		for _, tid := range ca.Layout().Tuples() {
			s, _ := ca.Layout().SlotOf(tid)
			if int(s.Index) >= len(mark[int(s.Stage)*aps+int(s.Array)]) && !slices.Contains(grown, tid) {
				grown = append(grown, tid)
			}
		}
	}
	ra := drv.Result()
	cs, _ := driveSerial(t, cfgS, wl, txns)

	demoted := 0
	for _, tid := range grown {
		if _, ok := ca.Layout().SlotOf(tid); !ok {
			demoted++
		}
	}
	if demoted == 0 {
		t.Fatalf("no tuple promoted past the offload's high-water mark was demoted again (%d promoted past it; promoted %d, demoted %d)",
			len(grown), ra.Promoted, ra.Demoted)
	}
	if a, s := ca.LogicalDigest(), cs.LogicalDigest(); a != s {
		t.Fatalf("promotion past the high-water mark corrupted state:\n  adaptive: %s\n  static:   %s", a, s)
	}
}
