package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/txnwire"
	"repro/internal/wal"
	"repro/internal/workload"
)

// smallConfig returns a fast-to-simulate cluster for tests.
func smallConfig(eng string) Config {
	cfg := DefaultConfig()
	cfg.Engine = eng
	cfg.Nodes = 4
	cfg.WorkersPerNode = 6
	cfg.Switch.SlotsPerArray = 256
	cfg.SampleTxns = 12000
	return cfg
}

func ycsbGen(cfg Config, writePct int) *workload.YCSB {
	wcfg := workload.YCSBWorkloadA(cfg.Nodes)
	wcfg.WritePct = writePct
	wcfg.RowsPerNode = 1 << 20
	return workload.NewYCSB(wcfg)
}

func runShort(t *testing.T, cfg Config, gen workload.Generator) *Result {
	t.Helper()
	c := NewCluster(cfg, gen)
	return c.Run(1*sim.Millisecond, 4*sim.Millisecond)
}

func TestP4DBRunsYCSB(t *testing.T) {
	cfg := smallConfig("p4db")
	res := runShort(t, cfg, ycsbGen(cfg, 50))
	if res.Counters.Committed() == 0 {
		t.Fatal("nothing committed")
	}
	if res.Counters.CommittedHot == 0 {
		t.Fatal("no hot transactions executed on the switch")
	}
	// The paper executes all YCSB transactions in a single pass; with a
	// sampling-based layout a residual of rarely-co-accessed (hence
	// never-sampled) pairs may still collide, so allow up to 0.5%.
	if res.Counters.MultiPass*200 > res.Counters.SinglePass {
		t.Fatalf("YCSB multi-pass fraction too high: %d multi vs %d single",
			res.Counters.MultiPass, res.Counters.SinglePass)
	}
	if res.SwitchTxns == 0 {
		t.Fatal("switch executed nothing")
	}
}

func TestP4DBHotOnlyIsAbortFree(t *testing.T) {
	cfg := smallConfig("p4db")
	wcfg := workload.YCSBWorkloadA(cfg.Nodes)
	wcfg.HotTxnPct = 100
	wcfg.RowsPerNode = 1 << 20
	res := runShort(t, cfg, workload.NewYCSB(wcfg))
	if res.Counters.Aborts != 0 {
		t.Fatalf("hot-only P4DB aborted %d times; switch txns are abort-free", res.Counters.Aborts)
	}
	if res.Counters.CommittedCold != 0 || res.Counters.CommittedWarm != 0 {
		t.Fatalf("hot-only workload produced cold/warm commits: %+v", res.Counters)
	}
}

func TestNoSwitchAbortsUnderContention(t *testing.T) {
	cfg := smallConfig("noswitch")
	cfg.WorkersPerNode = 12
	res := runShort(t, cfg, ycsbGen(cfg, 50))
	if res.Counters.Committed() == 0 {
		t.Fatal("nothing committed")
	}
	if res.Counters.Aborts == 0 {
		t.Fatal("no aborts despite 75% of traffic on 50 hot keys/node (contention model broken)")
	}
}

// TestHeadlineClaim is Figure 1: P4DB outperforms the No-Switch baseline
// on a skewed update-heavy workload.
func TestHeadlineClaim(t *testing.T) {
	var thr [2]float64
	for i, sys := range []string{"noswitch", "p4db"} {
		cfg := smallConfig(sys)
		cfg.WorkersPerNode = 12
		res := runShort(t, cfg, ycsbGen(cfg, 50))
		thr[i] = res.Throughput()
	}
	if thr[1] <= thr[0] {
		t.Fatalf("P4DB (%.0f txn/s) not faster than No-Switch (%.0f txn/s)", thr[1], thr[0])
	}
	if thr[1] < 1.5*thr[0] {
		t.Fatalf("speedup only %.2fx; paper reports multiples under this contention", thr[1]/thr[0])
	}
}

func TestLMSwitchRunsAndGainsLittle(t *testing.T) {
	cfg := smallConfig("lmswitch")
	cfg.WorkersPerNode = 12
	lm := runShort(t, cfg, ycsbGen(cfg, 50))
	if lm.Counters.Committed() == 0 {
		t.Fatal("LM-Switch committed nothing")
	}
	cfgP := smallConfig("p4db")
	cfgP.WorkersPerNode = 12
	p4 := runShort(t, cfgP, ycsbGen(cfgP, 50))
	if lm.Throughput() >= p4.Throughput() {
		t.Fatalf("LM-Switch (%.0f) should not beat P4DB (%.0f) under skew", lm.Throughput(), p4.Throughput())
	}
}

func TestChillerRuns(t *testing.T) {
	cfg := smallConfig("chiller")
	res := runShort(t, cfg, ycsbGen(cfg, 50))
	if res.Counters.Committed() == 0 {
		t.Fatal("Chiller committed nothing")
	}
}

func TestBothPoliciesRun(t *testing.T) {
	for _, pol := range []lock.Policy{lock.NoWait, lock.WaitDie} {
		cfg := smallConfig("noswitch")
		cfg.Policy = pol
		res := runShort(t, cfg, ycsbGen(cfg, 50))
		if res.Counters.Committed() == 0 {
			t.Fatalf("policy %v committed nothing", pol)
		}
	}
}

// TestSmallBankNoNegativeBalances is the end-to-end isolation check: all
// debits are constrained writes, so under serializable execution no
// balance — on the nodes or in the switch registers — can end up negative.
func TestSmallBankNoNegativeBalances(t *testing.T) {
	for _, sys := range []string{"noswitch", "p4db", "chiller"} {
		cfg := smallConfig(sys)
		sbc := workload.DefaultSmallBank(cfg.Nodes, 5)
		sbc.AccountsPerNode = 500
		gen := workload.NewSmallBank(sbc)
		c := NewCluster(cfg, gen)
		res := c.Run(1*sim.Millisecond, 4*sim.Millisecond)
		if res.Counters.Committed() == 0 {
			t.Fatalf("%v: nothing committed", sys)
		}
		for i := 0; i < cfg.Nodes; i++ {
			st := c.Node(i).Store()
			for _, tb := range []store.TableID{workload.SBChecking, workload.SBSavings} {
				for _, k := range st.Table(tb).Keys() {
					// Skip tuples that moved to the switch: their node
					// copy is stale by design.
					if sys == "p4db" && c.HotIndex().OnSwitch(store.GlobalField(tb, 0, k)) {
						continue
					}
					if v := st.Table(tb).Get(k, 0); v < 0 {
						t.Fatalf("%v: negative balance %d at node %d table %d key %d", sys, v, i, tb, k)
					}
				}
			}
		}
		if sys == "p4db" {
			for _, tid := range c.Layout().Tuples() {
				s, _ := c.Layout().SlotOf(tid)
				if v := c.Switch().ReadRegister(s.Stage, s.Array, s.Index); v < 0 {
					t.Fatalf("negative balance %d in switch register %v", v, s)
				}
			}
		}
	}
}

func TestTPCCWarmTransactions(t *testing.T) {
	cfg := smallConfig("p4db")
	gen := workload.NewTPCC(workload.DefaultTPCC(cfg.Nodes, 8))
	res := runShort(t, cfg, gen)
	if res.Counters.CommittedWarm == 0 {
		t.Fatalf("TPC-C produced no warm transactions: %+v", res.Counters)
	}
	if res.SwitchTxns == 0 {
		t.Fatal("warm transactions never reached the switch")
	}
}

func TestOffloadLoadsValues(t *testing.T) {
	cfg := smallConfig("p4db")
	sbc := workload.DefaultSmallBank(cfg.Nodes, 5)
	sbc.AccountsPerNode = 200
	gen := workload.NewSmallBank(sbc)
	c := NewCluster(cfg, gen)
	found := 0
	for _, tid := range c.Layout().Tuples() {
		gk := store.GlobalKey(tid)
		table, field, key := gk.SplitField()
		s, _ := c.Layout().SlotOf(tid)
		got := c.Switch().ReadRegister(s.Stage, s.Array, s.Index)
		home := gen.Home(table, key)
		want := c.Node(int(home)).Store().Table(table).Get(key, field)
		if got != want {
			t.Fatalf("offloaded tuple %v: register=%d store=%d", gk, got, want)
		}
		found++
	}
	if found == 0 {
		t.Fatal("nothing offloaded")
	}
}

func TestHotSetDetectionFindsConfiguredHotTuples(t *testing.T) {
	cfg := smallConfig("p4db")
	gen := ycsbGen(cfg, 50)
	c := NewCluster(cfg, gen)
	want := gen.HotCandidates()
	missed := 0
	for _, k := range want {
		if !c.HotIndex().OnSwitch(k) {
			missed++
		}
	}
	if missed > len(want)/10 {
		t.Fatalf("detection missed %d/%d configured hot tuples", missed, len(want))
	}
}

func TestCapacityCapSpills(t *testing.T) {
	cfg := smallConfig("p4db")
	cfg.HotSetCap = 20 // fewer than the 4*50 configured hot keys
	gen := ycsbGen(cfg, 50)
	c := NewCluster(cfg, gen)
	if got := c.HotIndex().OnSwitchCount(); got > 20 {
		t.Fatalf("offloaded %d tuples despite cap 20", got)
	}
	res := c.Run(1*sim.Millisecond, 3*sim.Millisecond)
	// Overflowing hot traffic must still commit (as cold transactions).
	if res.Counters.Committed() == 0 {
		t.Fatal("nothing committed with capped hot-set")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int64 {
		cfg := smallConfig("p4db")
		res := runShort(t, cfg, ycsbGen(cfg, 50))
		return res.Counters.Committed()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical configs committed %d vs %d (non-deterministic)", a, b)
	}
}

// TestSwitchRecoveryEndToEnd drives hot transactions to completion, then
// crashes the switch and reconstructs its state from the node WALs.
func TestSwitchRecoveryEndToEnd(t *testing.T) {
	cfg := smallConfig("p4db")
	cfg.Durable = true // the WAL retains records only on durable runs
	sbc := workload.DefaultSmallBank(cfg.Nodes, 5)
	sbc.AccountsPerNode = 200
	sbc.HotTxnPct = 100
	sbc.DistPct = 0
	gen := workload.NewSmallBank(sbc)
	c := NewCluster(cfg, gen)

	// Drive a bounded number of transactions so every record completes.
	for i := 0; i < cfg.Nodes; i++ {
		n := c.Node(i)
		rng := sim.NewRNG(uint64(900 + i))
		k := 0
		var drive func()
		drive = func() {
			for k < 50 {
				k++
				txn := gen.Next(rng, n.ID())
				if c.EngineContext().Classify(txn) == engine.ClassHot {
					c.EngineContext().ExecHotK(n, txn, func(engine.Class, error) { drive() })
					return
				}
			}
		}
		c.Env().After(0, drive)
	}
	c.Env().Run()

	want := c.Switch().Snapshot()
	logs := make([]*wal.Log, cfg.Nodes)
	for i := range logs {
		logs[i] = c.Node(i).Log()
	}
	// Simulate lost responses for purely additive records.
	stripped := 0
	for _, l := range logs {
		for _, rec := range l.SwitchRecords() {
			if stripped >= 2 || !rec.HasGID {
				continue
			}
			additive := len(rec.Instrs) > 0
			for _, in := range rec.Instrs {
				if in.Op != txnwire.OpAdd {
					additive = false
					break
				}
			}
			if additive {
				rec.HasGID = false
				rec.GID = 0
				rec.Results = nil
				stripped++
			}
		}
	}

	// Crash and recover.
	c.Switch().Reset()
	c.Switch().Restore(c.Baseline())
	fresh := func() wal.Replayer {
		scratch := pisa.New(sim.NewEnv(0), cfg.Switch)
		scratch.Restore(c.Baseline())
		return scratch
	}
	if _, _, err := wal.RecoverSwitch(logs, fresh, c.Switch()); err != nil {
		t.Fatal(err)
	}
	got := c.Switch().Snapshot()
	if ai, i, differ := got.Diff(want); differ {
		t.Fatalf("array %d slot %d after recovery: %d, want %d", ai, i, got.At(ai, i), want.At(ai, i))
	}
}

// TestFaultRecoveryMatchesGolden runs each fault kind against its engine
// and pins the recovered run's final state digest to the no-fault run's:
// the crash handler is zero-perturbation (synchronous, no RNG draws, no
// scheduled events), so any byte recovery failed to rebuild would split
// the digests.
func TestFaultRecoveryMatchesGolden(t *testing.T) {
	cases := []struct {
		eng  string
		plan FaultPlan
	}{
		{"p4db", FaultPlan{Kind: SwitchCrash, At: 2 * sim.Millisecond}},
		{"noswitch", FaultPlan{Kind: CoordCrash, At: 2 * sim.Millisecond, Node: 0}},
		{"noswitch", FaultPlan{Kind: NodeCrash, At: 3 * sim.Millisecond, Node: 1}},
		{"calvin", FaultPlan{Kind: SequencerCrash, At: 2 * sim.Millisecond}},
	}
	for _, tc := range cases {
		t.Run(tc.plan.Kind.String(), func(t *testing.T) {
			cfg := smallConfig(tc.eng)
			cfg.Durable = true
			cfg.CaptureState = true
			golden := runShort(t, cfg, ycsbGen(cfg, 50))
			if golden.StateDigest == "" {
				t.Fatal("CaptureState produced no digest")
			}

			cfg.Fault = &tc.plan
			res := runShort(t, cfg, ycsbGen(cfg, 50))
			if res.Recovery == nil {
				t.Fatal("fault never fired")
			}
			if !res.Recovery.Verified || res.Recovery.Kind != tc.plan.Kind.String() {
				t.Fatalf("recovery stats: %+v", res.Recovery)
			}
			if res.Recovery.LogRecords == 0 || res.Recovery.RecoveryTime == 0 {
				t.Fatalf("recovery replayed nothing: %+v", res.Recovery)
			}
			if res.StateDigest != golden.StateDigest {
				t.Fatalf("recovered state diverged from the no-fault run:\n fault  %s\n golden %s",
					res.StateDigest, golden.StateDigest)
			}
			if res.Counters.Committed() != golden.Counters.Committed() {
				t.Fatalf("fault run committed %d, golden %d", res.Counters.Committed(), golden.Counters.Committed())
			}
		})
	}
}

// TestSwitchCrashRecoveryAtScale pins the switch-crash story at the
// recovery figure's scale (8 nodes, 8 workers, distributed YCSB-A), where
// two failure modes live that the 4-node cases never hit: a crash landing
// while a multipass transaction is between pipeline passes (the register
// file holds partial effects no log replay can reproduce — the fault
// injector must defer until the pipeline drains), and two unacknowledged
// blind writes to the same register (order-ambiguous from the logs alone —
// the gap fit must come from the admitted GIDs, not the backtracking
// search, or replay lands on a consistent-but-wrong final state).
func TestSwitchCrashRecoveryAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale fault run")
	}
	cfg := DefaultConfig()
	cfg.Engine = "p4db"
	cfg.Nodes = 8
	cfg.WorkersPerNode = 8
	cfg.Switch.SlotsPerArray = 256
	cfg.SampleTxns = 6000
	cfg.Durable = true
	cfg.CaptureState = true

	gen := func() *workload.YCSB {
		wcfg := workload.YCSBWorkloadA(cfg.Nodes)
		wcfg.WritePct, wcfg.DistPct, wcfg.HotTxnPct = 50, 20, 75
		return workload.NewYCSB(wcfg)
	}
	warmup, measure := 200*sim.Microsecond, 600*sim.Microsecond

	golden := NewCluster(cfg, gen()).Run(warmup, measure)
	for _, at := range []sim.Time{300 * sim.Microsecond, 500 * sim.Microsecond, 700 * sim.Microsecond} {
		cfg.Fault = &FaultPlan{Kind: SwitchCrash, At: at}
		res := NewCluster(cfg, gen()).Run(warmup, measure)
		if res.Recovery == nil {
			t.Fatalf("at=%v: fault never fired", at)
		}
		if res.StateDigest != golden.StateDigest {
			t.Fatalf("at=%v: recovered state diverged from the no-fault run:\n fault  %s\n golden %s",
				at, res.StateDigest, golden.StateDigest)
		}
	}
}

// TestFaultPlanValidation pins the build-time guard rails.
func TestFaultPlanValidation(t *testing.T) {
	mustPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: NewCluster accepted an invalid fault plan", name)
			}
		}()
		NewCluster(cfg, ycsbGen(cfg, 50))
	}

	cfg := smallConfig("p4db")
	cfg.Fault = &FaultPlan{Kind: SwitchCrash, At: sim.Millisecond}
	mustPanic("fault without Durable", cfg)

	cfg = smallConfig("p4db")
	cfg.Durable, cfg.Adaptive = true, true
	cfg.Fault = &FaultPlan{Kind: SwitchCrash, At: sim.Millisecond}
	mustPanic("fault with Adaptive", cfg)

	cfg = smallConfig("noswitch")
	cfg.Durable = true
	cfg.Fault = &FaultPlan{Kind: SwitchCrash, At: sim.Millisecond}
	mustPanic("switch crash without a switch", cfg)

	cfg = smallConfig("p4db")
	cfg.Durable = true
	cfg.Fault = &FaultPlan{Kind: SequencerCrash, At: sim.Millisecond}
	mustPanic("sequencer crash without a sequencer", cfg)

	cfg = smallConfig("noswitch")
	cfg.Durable = true
	cfg.Fault = &FaultPlan{Kind: NodeCrash, At: sim.Millisecond, Node: 99}
	mustPanic("node out of range", cfg)
}

// TestDurableDigestInvariance is the tentpole's no-regression clause at
// the core level: Durable gates only record retention, so a durable run
// must produce the exact final state (and commit count) of the default
// run.
func TestDurableDigestInvariance(t *testing.T) {
	run := func(durable bool) *Result {
		cfg := smallConfig("p4db")
		cfg.Durable = durable
		cfg.CaptureState = true
		return runShort(t, cfg, ycsbGen(cfg, 50))
	}
	off, on := run(false), run(true)
	if off.StateDigest != on.StateDigest {
		t.Fatalf("Durable perturbed the run:\n off %s\n on  %s", off.StateDigest, on.StateDigest)
	}
	if off.Counters.Committed() != on.Counters.Committed() {
		t.Fatalf("Durable changed commits: off %d, on %d", off.Counters.Committed(), on.Counters.Committed())
	}
}

func TestResultThroughput(t *testing.T) {
	r := &Result{Duration: sim.Second}
	r.Counters.CommittedHot = 5
	if r.Throughput() != 5 {
		t.Fatalf("Throughput = %v", r.Throughput())
	}
	empty := &Result{}
	if empty.Throughput() != 0 {
		t.Fatal("zero-duration throughput should be 0")
	}
}
