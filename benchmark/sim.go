package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// simSpec is one workload of the simulator front door: a cluster
// configuration, a registered generator and the virtual windows of one
// round. Every round is identical deterministic work for its seed.
type simSpec struct {
	engine   string
	durable  bool
	workload string
	warmup   sim.Time
	measure  sim.Time // sized so that a round, cold build included, takes about a second
}

const simNodes = 8

var simSpecs = map[string]simSpec{
	"sim_ycsb_p4db":     {engine: "p4db", workload: "ycsb-a", warmup: sim.Millisecond, measure: 4 * sim.Millisecond},
	"sim_ycsb_noswitch": {engine: "noswitch", workload: "ycsb-a", warmup: sim.Millisecond, measure: 25 * sim.Millisecond},
	"sim_tpcc_durable":  {engine: "p4db", durable: true, workload: "tpcc", warmup: sim.Millisecond, measure: 3 * sim.Millisecond},
}

func (s simSpec) config(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Engine = s.engine
	cfg.Durable = s.durable
	cfg.Nodes = simNodes
	cfg.Seed = seed
	return cfg
}

// sized returns the spec with the windows a run under o uses.
func (s simSpec) sized(o options) simSpec {
	if o.quick {
		s.warmup, s.measure = 100*sim.Microsecond, sim.Millisecond
	}
	return s
}

func (s simSpec) generator() workload.Generator {
	gen, err := workload.ByName(s.workload, simNodes)
	if err != nil {
		panic(fmt.Sprintf("benchmark: %v", err))
	}
	return gen
}

// measuredShare is the part of a run's virtual time its commit counters
// cover. Cluster.Run counts commits over the measured window only, while
// its event count, its allocations and its host time span warm-up and
// window alike; totals of the second kind are scaled by this share before
// they are divided by commits.
func (s simSpec) measuredShare() float64 {
	return float64(s.measure) / float64(s.warmup+s.measure)
}

// simRound is everything one round leaves behind.
type simRound struct {
	setupS  float64
	runS    float64 // host seconds inside Cluster.Run, warm-up included
	mallocs uint64  // heap allocations inside Cluster.Run, warm-up included
	res     *core.Result
	cluster *core.Cluster // single-use, already run: counters and state only
	digest  string        // StateDigest, filled for the rounds the gate compares
}

// round builds a cold cluster for seed and runs it once. The detect cache
// in internal/core is keyed by content, so a seed never seen in this
// process pays the full preparation: store population, hot-set detection,
// layout, offload.
func (s simSpec) round(seed uint64, tr *tracer) simRound {
	cfg := s.config(seed)
	gen := s.generator()
	runtime.GC()
	var m0, m1 runtime.MemStats

	endSetup := tr.begin("core.NewCluster", 0)
	t0 := time.Now()
	c := core.NewCluster(cfg, gen)
	setup := time.Since(t0)
	endSetup()

	runtime.ReadMemStats(&m0)
	endRun := tr.begin("Cluster.Run", 0)
	t1 := time.Now()
	res := c.Run(s.warmup, s.measure)
	run := time.Since(t1)
	endRun()
	runtime.ReadMemStats(&m1)

	return simRound{
		setupS:  setup.Seconds(),
		runS:    run.Seconds(),
		mallocs: m1.Mallocs - m0.Mallocs,
		res:     res,
		cluster: c,
	}
}

// sameOutcome compares two runs of one seed on everything a deterministic
// simulator must repeat: state digest, commit counters, latency tally and
// the event count.
func sameOutcome(a, b simRound) error {
	if a.digest != b.digest {
		return fmt.Errorf("state digest %.12s != %.12s", a.digest, b.digest)
	}
	if a.res.Counters != b.res.Counters {
		return fmt.Errorf("counters %+v != %+v", a.res.Counters, b.res.Counters)
	}
	if a.res.Events != b.res.Events {
		return fmt.Errorf("events %d != %d", a.res.Events, b.res.Events)
	}
	if a.res.Latency.Count() != b.res.Latency.Count() || a.res.Latency.Sum() != b.res.Latency.Sum() {
		return fmt.Errorf("latency tally (%d, %v) != (%d, %v)",
			a.res.Latency.Count(), a.res.Latency.Sum(), b.res.Latency.Count(), b.res.Latency.Sum())
	}
	return nil
}

// runSim measures one simulator workload: R rounds with seeds S..S+R-1,
// each a cold build followed by a timed run, then the correctness gate
// (round 0 repeated; everything but host time must come out identical).
// Each round yields one set-up sample and one host rate. With a tracer,
// odd rounds are recorded as spans and even rounds are not, so one pass
// yields traced and untraced rates side by side.
func runSim(s simSpec, o options, tr *tracer) *run {
	R := o.rounds()
	s = s.sized(o)
	share := s.measuredShare()
	out := &run{}
	endRun := tr.begin("run "+o.workload, 0)
	var first simRound
	var live *core.Cluster // the newest round's cluster, the only one kept reachable
	for i := 0; i < R; i++ {
		live = nil
		rt := tr
		if i%2 == 0 {
			rt = nil
		}
		endRound := rt.begin(fmt.Sprintf("round[%d]", i), 0)
		rd := s.round(o.seed+uint64(i), rt)
		endRound()
		live = rd.cluster
		if i == 0 {
			first = rd
			first.digest = rd.cluster.StateDigest()
			first.cluster = nil
		}

		commits := rd.res.Counters.Committed()
		out.setup = append(out.setup, rd.setupS)
		out.rates = append(out.rates, float64(commits)/(rd.runS*share))
		out.traced = append(out.traced, rt != nil)
		out.busyS += rd.runS * share
		out.commits += commits
		out.events += float64(rd.res.Events) * share
		out.vtime += rd.res.Duration
		out.vlat.Merge(&rd.res.Latency)
		out.mallocs += float64(rd.mallocs) * share
		out.counters.Merge(&rd.res.Counters)
		out.breakdown.Merge(&rd.res.Breakdown)
		out.switchTxns += rd.res.SwitchTxns
		out.addClusterCounters(rd.cluster, share)
		out.attempted++
		if commits == 0 {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("round %d committed nothing", i))
		}
	}

	// mem_mb: live heap with the last round's cluster still reachable.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.memMB = float64(ms.HeapAlloc) / (1 << 20)
	out.addWAL(live)
	live = nil

	endGate := tr.begin("correctness gate", 0)
	again := s.round(o.seed, nil)
	again.digest = again.cluster.StateDigest()
	endGate()
	out.attempted++
	if err := sameOutcome(first, again); err != nil {
		out.failed++
		out.problems = append(out.problems, "round 0 did not repeat: "+err.Error())
	}
	endRun()
	return out
}
