package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Crash-recovery cells: the fault dimension of the scenario matrix
// (Options.Faults) and the recovery-latency figure (`-fig recover`). Both
// run the engine-level durability path end to end — Durable WALs on every
// commit path, a seeded mid-run crash, in-simulation recovery — and both
// lean on the same oracle: the crash handler is zero-perturbation, so a
// recovered run must reproduce the no-fault run's final state digest bit
// for bit. Every per-cell knob except the seed is pinned here so the
// recover digest pin stays stable no matter how the CLI sizes the paper
// figures.
const (
	recoverWorkers = 8
	recoverSamples = 6000
	recoverSlots   = 256
	recoverWarmup  = 200 * sim.Microsecond
	recoverMeasure = 600 * sim.Microsecond
	// recoverCrashAt is the fault matrix's crash instant: mid-measure, so
	// the WAL holds a substantial prefix and a substantial suffix executes
	// against recovered state.
	recoverCrashAt = 500 * sim.Microsecond
)

// faultCases maps each recovery story to the engine that exercises it:
// P4DB loses the switch (registers rebuilt by gap-fitting GID replay),
// the 2PL/2PC baseline loses a coordinator (partition redone from the
// cold records of all logs), and Calvin loses its sequencer (a standby
// replays the epoch log).
var faultCases = []struct {
	sys  string
	kind core.FaultKind
}{
	{"p4db", core.SwitchCrash},
	{"noswitch", core.CoordCrash},
	{"calvin", core.SequencerCrash},
}

// faultWorkloads is the fault dimension's workload axis.
func faultWorkloads(o Options) []struct {
	name string
	gen  func() workload.Generator
} {
	return []struct {
		name string
		gen  func() workload.Generator
	}{
		{"YCSB-A", func() workload.Generator { return o.ycsb(50, 20, 75) }},
		{"SmallBank", func() workload.Generator { return o.smallbank(5, 20) }},
		{"TPC-C", func() workload.Generator { return o.tpcc(o.Nodes, 20) }},
	}
}

// recoverConfig assembles one durable cluster config at the pinned cell
// knobs; plan == nil is a no-fault golden cell.
func (o Options) recoverConfig(sys string, plan *core.FaultPlan) core.Config {
	cfg := o.config(sys, lock.NoWait, recoverWorkers)
	cfg.Scheme = engine.Scheme2PL // pinned against -scheme (scheme forcers override)
	cfg.SampleTxns = recoverSamples
	cfg.Switch.SlotsPerArray = recoverSlots
	cfg.Adaptive = false // rejected alongside Fault; pin off against -adaptive
	cfg.AdaptInterval = 0
	cfg.Durable = true
	cfg.CaptureState = true
	cfg.Fault = plan
	return cfg
}

// FaultMatrix runs the scenario matrix's fault dimension: for every
// (workload, recovery story) pair one no-fault golden cell and one
// fault-injected cell, executed on the shared worker pool. Each fault
// cell HARD-ASSERTS that its recovered final state digest equals the
// golden cell's — a recovery that silently lost or invented a byte
// panics here rather than printing a plausible row. Row shape: Series =
// engine label, X = fault kind ("none" for golden cells), Value =
// modeled recovery latency in µs, Speedup = fault-cell throughput vs its
// golden cell (≈1 by construction).
func FaultMatrix(o Options) []Row {
	type cell struct {
		wl, sys, fault string
	}
	var pts []Point
	var cells []cell
	for _, wl := range faultWorkloads(o) {
		for _, fc := range faultCases {
			fp := &core.FaultPlan{Kind: fc.kind, At: recoverCrashAt}
			for _, p := range []*core.FaultPlan{nil, fp} {
				x := "none"
				if p != nil {
					x = p.Kind.String()
				}
				pt := point(fmt.Sprintf("matrix-faults %s %s/%s", wl.name, fc.sys, x),
					o.recoverConfig(fc.sys, p), wl.gen,
					Row{Figure: "Matrix-faults", Workload: wl.name, Series: label(fc.sys), X: x})
				pt.Warmup, pt.Measure = recoverWarmup, recoverMeasure
				pts = append(pts, pt)
				cells = append(cells, cell{wl.name, fc.sys, x})
			}
		}
	}

	results := o.runPoints(pts)
	rows := make([]Row, 0, len(pts))
	for i := 0; i < len(pts); i += 2 {
		golden, faulted := results[i], results[i+1]
		if golden.StateDigest == "" || faulted.StateDigest == "" {
			panic(fmt.Sprintf("bench: fault matrix cell %+v captured no state digest", cells[i+1]))
		}
		if faulted.Recovery == nil {
			panic(fmt.Sprintf("bench: fault matrix cell %+v: fault never fired", cells[i+1]))
		}
		if faulted.StateDigest != golden.StateDigest {
			panic(fmt.Sprintf("bench: recovered state diverged from the no-fault golden state in cell %+v:\n fault  %s\n golden %s",
				cells[i+1], faulted.StateDigest, golden.StateDigest))
		}
		gr := fill(pts[i].Row, golden)
		gr.Speedup = 1
		fr := fill(pts[i+1].Row, faulted)
		if gr.Throughput > 0 {
			fr.Speedup = fr.Throughput / gr.Throughput
		}
		fr.Value = float64(faulted.Recovery.RecoveryTime) / float64(sim.Microsecond)
		rows = append(rows, gr, fr)
	}
	return rows
}

// recoverPlan declares the recovery-latency figure's points: every
// recovery story on YCSB-A, crashed at increasing depths into the run —
// a later crash leaves a longer WAL to scan and replay, which is the
// figure's x-axis (log records scanned) against the modeled recovery
// latency (Value, µs).
func recoverPlan(o Options, crashTimes []sim.Time) plan {
	var pts []Point
	for _, fc := range faultCases {
		fc := fc
		for _, at := range crashTimes {
			fp := &core.FaultPlan{Kind: fc.kind, At: at}
			tmpl := Row{
				Figure: "Recover", Workload: "YCSB-A",
				Series: fmt.Sprintf("%s %s", label(fc.sys), fc.kind),
			}
			p := point(fmt.Sprintf("recover %s at=%v", fc.kind, at),
				o.recoverConfig(fc.sys, fp),
				func() workload.Generator { return o.ycsb(50, 20, 75) },
				tmpl)
			p.Warmup, p.Measure = recoverWarmup, recoverMeasure
			p.Expand = func(res *core.Result) []Row {
				r := fill(tmpl, res)
				r.X = fmt.Sprintf("%d rec", res.Recovery.LogRecords)
				r.Value = float64(res.Recovery.RecoveryTime) / float64(sim.Microsecond)
				return []Row{r}
			}
			pts = append(pts, p)
		}
	}
	return plan{points: pts}
}

// figRecoverPlan declares the full figure. Like scale and drift it is
// registered in figurePlans (`-fig recover`) but deliberately not in
// allPlans: `-fig all` keeps reproducing the paper's figure set — and
// its golden digest — unchanged.
func figRecoverPlan(o Options) plan {
	return recoverPlan(o, []sim.Time{300 * sim.Microsecond, 500 * sim.Microsecond, 700 * sim.Microsecond})
}

// RecoverSweep runs the reduced recovery sweep (all three recovery
// stories at a shallow and a deep crash point) on a pool of the given
// size and returns its rows. Every per-cell knob is pinned inside
// recoverPlan; only the seed and node count come from the golden
// options. TestRecoverSweepDeterministic pins its digest in
// testdata/recover.digest.
func RecoverSweep(parallel int) []Row {
	o := GoldenOptions()
	o.Parallel = parallel
	return o.execute(recoverPlan(o, []sim.Time{300 * sim.Microsecond, 700 * sim.Microsecond}))
}
