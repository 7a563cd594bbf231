package bench

import (
	"fmt"

	"repro/internal/lock"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The drifting-workload figure is the payoff of the online adaptive
// layout: workloads whose hot set moves mid-run (a diurnal rotation and a
// flash crowd, both at Zipf θ=0.9) under three placements — the static
// offline layout (tuned to the pre-shift distribution, decaying toward
// no-switch once the hot set moves), the online adaptive layout
// (re-detecting and migrating live), and the per-phase oracle (the
// offline pipeline re-run against the post-shift distribution: the
// layout an adaptive run can at best converge to). Every per-cell knob
// except the seed is pinned here so the figure's digest stays stable no
// matter how the CLI sizes the paper figures.
const (
	// driftWorkers is higher than the scale figure's: contention at the
	// shifted hot set is the figure's subject, and the sliding window
	// needs enough traffic per interval for re-detection to see.
	driftWorkers = 20
	// driftSamples bounds the offline detection replay; run at virtual
	// time zero it always samples the pre-shift (phase 0) distribution —
	// except for the oracle series, whose generator is pinned to phase 1.
	driftSamples = 4000
	// driftPhase is the generators' phase length: the single hot-set
	// shift (MaxPhase 1) lands this far into the warmup.
	driftPhase = 200 * sim.Microsecond
	// driftWarmup covers the shift plus an adaptation runway of several
	// re-detection intervals, so the measured window compares converged
	// placements, not the migration transient.
	driftWarmup  = 900 * sim.Microsecond
	driftMeasure = 500 * sim.Microsecond
	// driftInterval is the adaptive series' re-detection period.
	driftInterval = 100 * sim.Microsecond
	// driftTheta is the skew of both drifting workloads.
	driftTheta = 0.9
	// driftSlots shrinks the register arrays the same way the core tests
	// do: plenty of capacity for every hot set the figure detects, a
	// fraction of the memory footprint across the figure's cells.
	driftSlots = 256
)

// driftModes enumerates the figure's workload axis.
var driftModes = []struct {
	mode workload.DriftMode
	name string
}{
	{workload.DriftRotate, "rotate"},
	{workload.DriftFlash, "flash"},
}

// driftGen builds one drifting generator; oracle > 0 pins it to that
// phase (the per-phase oracle's generator, which offline detection then
// samples post-shift).
func driftGen(nodes int, mode workload.DriftMode, oracle int) func() workload.Generator {
	return func() workload.Generator {
		cfg := workload.DefaultDrift(nodes, mode, driftPhase)
		cfg.Zipfian = true
		cfg.Theta = driftTheta
		cfg.OraclePhase = oracle
		return workload.NewDrift(cfg)
	}
}

// driftPlan declares the drifting-workload points over the given node
// counts: for each (N, drift mode) cell the static P4DB layout as the
// baseline, then the adaptive and oracle placements with speedups
// against it.
func driftPlan(o Options, nodes []int) plan {
	var pts []Point
	for _, n := range nodes {
		n := n
		for _, m := range driftModes {
			m := m
			wl := fmt.Sprintf("YCSB %s θ=%.1f", m.name, driftTheta)
			x := fmt.Sprintf("N=%d", n)
			baseIdx := len(pts)
			for _, series := range []string{"static", "adaptive", "oracle"} {
				cfg := o.config("p4db", lock.NoWait, driftWorkers)
				cfg.Nodes = n
				cfg.SampleTxns = driftSamples
				cfg.Switch.SlotsPerArray = driftSlots
				// Adaptivity is this figure's series axis: pin it per
				// series, overriding any Options-level -adaptive.
				cfg.Adaptive = false
				cfg.AdaptInterval = 0
				oracle := 0
				switch series {
				case "adaptive":
					cfg.Adaptive = true
					cfg.AdaptInterval = driftInterval
				case "oracle":
					oracle = 1
				}
				p := point(fmt.Sprintf("drift %s N=%d %s", m.name, n, series),
					cfg, driftGen(n, m.mode, oracle),
					Row{Figure: "Drift", Workload: wl, Series: series, X: x})
				p.Warmup, p.Measure = driftWarmup, driftMeasure
				if series == "static" {
					p.Row.Speedup = 1
				} else {
					p.Base = baseIdx
				}
				pts = append(pts, p)
			}
		}
	}
	return plan{points: pts}
}

// figDriftPlan declares the full figure. Like the scale figure it is
// registered in figurePlans (`-fig drift`) but deliberately not in
// allPlans: `-fig all` keeps reproducing the paper's figure set — and
// its golden digest — unchanged.
func figDriftPlan(o Options) plan { return driftPlan(o, []int{8}) }
