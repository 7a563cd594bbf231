package bench

import (
	"fmt"

	"repro/internal/lock"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The contention-scaling figure is the payoff of the large-cluster fast
// path: it sweeps cluster size far past the paper's testbed (which stopped
// at one rack of real machines) against a smooth Zipf(θ) skew axis, for
// the No-Switch 2PL/2PC baseline, P4DB, and Calvin. Every per-cell knob
// except the seed is pinned here rather than taken from Options: the
// N=256 cells must stay tractable — and the figure's digest stable — no
// matter how the CLI sizes the paper figures.
const (
	// scaleWorkers is deliberately small: the figure's subject is the
	// cluster axis, and total load already grows linearly with N.
	scaleWorkers = 4
	// scaleSamples bounds the offline hot-set detection replay per cell.
	scaleSamples = 4000
	scaleWarmup  = 100 * sim.Microsecond
	scaleMeasure = 400 * sim.Microsecond
)

// scaleNodes and scaleThetas are the full figure's grid.
var (
	scaleNodes  = []int{8, 16, 64, 128, 256}
	scaleThetas = []float64{0.0, 0.6, 0.9, 1.1}
)

// scalePlan declares the contention-scaling points over the given grid:
// for each (θ, N) cell the No-Switch baseline, then P4DB and Calvin with
// speedups against it, on Zipfian YCSB-A at 20% distributed transactions.
func scalePlan(o Options, nodes []int, thetas []float64) plan {
	var pts []Point
	for _, theta := range thetas {
		theta := theta
		for _, n := range nodes {
			n := n
			gen := func() workload.Generator {
				cfg := workload.YCSBWorkloadA(n)
				cfg.DistPct = 20
				cfg.Zipfian = true
				cfg.Theta = theta
				return workload.NewYCSB(cfg)
			}
			wl := fmt.Sprintf("YCSB-A θ=%.1f", theta)
			x := fmt.Sprintf("N=%d", n)
			baseIdx := len(pts)
			for _, sys := range []string{"noswitch", "p4db", "calvin"} {
				cfg := o.config(sys, lock.NoWait, scaleWorkers)
				cfg.Nodes = n
				cfg.SampleTxns = scaleSamples
				p := point(fmt.Sprintf("scale θ=%.1f N=%d %s", theta, n, sys),
					cfg, gen,
					Row{Figure: "Scale", Workload: wl, Series: label(sys), X: x})
				p.Warmup, p.Measure = scaleWarmup, scaleMeasure
				if sys == "noswitch" {
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

// figScalePlan declares the full figure. It is registered in figurePlans
// (`-fig scale`) but deliberately not in allPlans: `-fig all` keeps
// reproducing the paper's figure set — and its golden digest — unchanged.
func figScalePlan(o Options) plan { return scalePlan(o, scaleNodes, scaleThetas) }
