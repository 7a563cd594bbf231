package core

import (
	"testing"

	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestWaitDieDistributedRunsRepeat runs one seeded WAIT_DIE cluster whose
// transactions mostly span several remote nodes twenty times and requires
// identical results. Under WAIT_DIE the order in which an abort's rollback
// messages go out, a commit's participants are listed and a lock set is
// released decides which waiter wakes first, so any of them ranging over a
// Go map (as all three used to) re-randomises the schedule on every run;
// NO_WAIT hid that, because nothing waits and the effects commute.
func TestWaitDieDistributedRunsRepeat(t *testing.T) {
	cfg := smallConfig("noswitch")
	cfg.Policy = lock.WaitDie
	cfg.WorkersPerNode = 12
	cfg.CaptureState = true
	wcfg := workload.YCSBWorkloadA(cfg.Nodes)
	wcfg.DistPct = 80
	wcfg.RowsPerNode = 1 << 20

	type outcome struct {
		events   int64
		counters metrics.Counters
		digest   string
	}
	var first outcome
	for i := 0; i < 20; i++ {
		res := NewCluster(cfg, workload.NewYCSB(wcfg)).Run(sim.Millisecond, 2*sim.Millisecond)
		got := outcome{res.Events, res.Counters, res.StateDigest}
		if i == 0 {
			first = got
			if got.counters.Committed() == 0 || got.counters.Aborts == 0 {
				t.Fatalf("run commits %d, aborts %d: not a contended run", got.counters.Committed(), got.counters.Aborts)
			}
			continue
		}
		if got != first {
			t.Fatalf("run %d diverged from run 0:\n got %+v\nwant %+v", i, got, first)
		}
	}
}
