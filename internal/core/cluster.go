package core

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/hotset"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// Cluster is the whole system under test: nodes, network, switch, the
// offloaded hot-set and its layout, driven by the configured execution
// engine.
type Cluster struct {
	cfg Config
	env *sim.Env
	gen workload.Generator
	eng engine.Engine
	ctx *engine.Context

	baseline []int64 // switch registers right after offload (recovery base)

	redoBase *store.Store   // crashed partition's load-time image (node-crash redo)
	recovery *RecoveryStats // filled by the fault handler once it fired
}

// NewCluster builds and loads the system: it creates the nodes, populates
// the benchmark's partitions, runs the offline hot-tuple detection and
// layout computation, and hands the result to the configured engine's
// Prepare step (which, for P4DB, offloads the hot tuples into the switch
// registers).
func NewCluster(cfg Config, gen workload.Generator) *Cluster {
	if gen.Nodes() != cfg.Nodes {
		panic(fmt.Sprintf("core: generator partitions %d nodes, config has %d", gen.Nodes(), cfg.Nodes))
	}
	eng, err := engine.Lookup(cfg.Engine)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	sch, err := engine.ResolveScheme(eng, cfg.Scheme)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	env := sim.NewEnv(cfg.Seed)
	// Drifting generators derive their phase from the cluster's virtual
	// clock; inject it before population and detection so the offline
	// sample is drawn at phase 0 (time zero) — exactly the snapshot a
	// static layout is tuned to.
	if cd, ok := gen.(workload.ClockDriven); ok {
		cd.SetClock(env.Now)
	}
	ctx := &engine.Context{
		Env:       env,
		Net:       netsim.New(env, cfg.Nodes, cfg.Latency),
		Sw:        pisa.New(env, cfg.Switch),
		Gen:       gen,
		Costs:     cfg.costsFor(eng.Name(), sch.Name()),
		Scheme:    sch,
		Policy:    cfg.Policy,
		SwitchCfg: cfg.Switch,
		BatchSize: cfg.BatchSize,
		Durable:   cfg.Durable,
	}
	if cfg.NoDeliveryBatching {
		ctx.Net.SetCoalescing(false)
	}
	c := &Cluster{cfg: cfg, env: env, gen: gen, eng: eng, ctx: ctx}
	stores := make([]*store.Store, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		n := engine.NewNode(netsim.NodeID(i), env, cfg.Policy, sch)
		stores[i] = n.Store()
		ctx.Nodes = append(ctx.Nodes, n)
	}
	gen.Populate(stores)
	sch.Init(ctx)

	c.detect()
	if err := eng.Prepare(ctx); err != nil {
		panic(fmt.Sprintf("core: engine %q failed to prepare: %v", eng.Name(), err))
	}
	if ctx.UseSwitch {
		c.baseline = ctx.Sw.Snapshot()
	}
	// The online adaptive layout only makes sense for engines that
	// offloaded tuples into the switch; for all others the flag is a
	// documented no-op.
	if cfg.Adaptive && ctx.UseSwitch {
		interval := cfg.AdaptInterval
		if interval <= 0 {
			interval = DefaultAdaptInterval
		}
		ctx.StartAdaptive(interval, cfg.hotSetRows())
	}
	if cfg.Fault != nil {
		c.installFault(cfg.Fault)
	}
	return c
}

// detect performs the strategy-independent part of the offline preparation
// step of Figure 3: replay a workload sample, select the hot-set and
// compute the data layout. Loading the switch registers is the P4DB
// engine's Prepare step.
func (c *Cluster) detect() {
	sampleRNG := sim.NewRNG(c.cfg.Seed ^ 0x5EED)
	sample := hotset.NewSample(c.cfg.SampleTxns)
	var txn workload.Txn
	for i := 0; i < c.cfg.SampleTxns; i++ {
		c.gen.NextInto(sampleRNG, netsim.NodeID(i%c.cfg.Nodes), &txn)
		for _, op := range txn.Ops {
			sample.Add(op.TupleKey(), op.DependsOn)
		}
		sample.EndTxn()
	}
	capRows := c.cfg.hotSetRows()

	// The preparation result is a pure function of (sample, cap, switch
	// geometry, layout mode, seed); sweep points that only vary workers or
	// engine share it via the detection cache (see detectcache.go), and
	// concurrent sweep points computing the same preparation share one
	// computation.
	key := detectKey(c.cfg, sample, capRows)
	art := getDetect(key, func() *detectArtifacts {
		var hs *hotset.HotSet
		if len(c.cfg.ExplicitHot) > 0 {
			hs = hotset.FromKeys(c.cfg.ExplicitHot, sample, capRows)
		} else {
			hs = sample.DetectAuto(capRows)
		}

		hotLabel := make(map[store.GlobalKey]bool, hs.Size())
		for _, k := range hs.Keys() {
			hotLabel[k] = true
		}

		spec := layout.Spec{
			Stages:         c.cfg.Switch.Stages,
			ArraysPerStage: c.cfg.Switch.ArraysPerStage,
			SlotsPerArray:  c.cfg.Switch.SlotsPerArray,
		}
		var l *layout.Layout
		if c.cfg.RandomLayout {
			l = layout.Random(hs.Graph(), spec, sim.NewRNG(c.cfg.Seed^0xBAD))
		} else {
			l = hs.Layout(spec)
		}
		// Cached past this build: copies only, never the sample or hs.
		return &detectArtifacts{hotLabel: hotLabel, layout: l, hotIdx: hotset.BuildIndex(hs, l)}
	})
	c.ctx.HotLabel = art.hotLabel
	c.ctx.Layout = art.layout
	c.ctx.HotIdx = art.hotIdx
}

// Env returns the cluster's simulation environment.
func (c *Cluster) Env() *sim.Env { return c.env }

// Switch returns the switch model.
func (c *Cluster) Switch() *pisa.Switch { return c.ctx.Sw }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.ctx.Nodes[i] }

// HotIndex returns the replicated hot index.
func (c *Cluster) HotIndex() *hotset.Index { return c.ctx.HotIdx }

// Layout returns the computed switch layout.
func (c *Cluster) Layout() *layout.Layout { return c.ctx.Layout }

// Baseline returns the switch register snapshot taken right after the
// offload (the recovery base state); nil for engines that leave the
// switch registers unused.
func (c *Cluster) Baseline() []int64 { return c.baseline }

// Engine returns the execution strategy the cluster runs.
func (c *Cluster) Engine() engine.Engine { return c.eng }

// EngineContext exposes the shared engine substrate (tests and drivers
// that execute transactions outside the closed worker loop).
func (c *Cluster) EngineContext() *engine.Context { return c.ctx }

// Result is the outcome of a measured run.
type Result struct {
	Engine      string // engine registry name, e.g. "p4db" (valid as Config.Engine)
	EngineLabel string // the engine's display label, e.g. "P4DB"
	Scheme      string // resolved CC scheme name the run executed, e.g. "mvcc"
	Workload    string
	Duration    sim.Time
	Counters    metrics.Counters
	Breakdown   metrics.Breakdown
	Latency     metrics.LatencyHist
	SwitchTxns  int64
	Recircs     int64

	// Online adaptive layout statistics (zero for static-layout runs):
	// completed migrations, tuples promoted node→switch, tuples demoted
	// switch→node, and executions parked at a migration fence.
	Migrations int64
	Promoted   int64
	Demoted    int64
	FenceWaits int64

	// Recovery reports what the crash handler did when the run carried a
	// FaultPlan; nil otherwise. StateDigest is the cluster's full state
	// digest after the run (Config.CaptureState); the fault matrix pins
	// fault-injected digests against their no-fault golden cells.
	Recovery    *RecoveryStats
	StateDigest string

	// Events is the number of simulator events the whole run executed
	// (warmup + measurement) and WallSeconds the wall-clock time it took:
	// together they measure the harness itself, not the simulated system.
	// Wall-clock numbers vary run to run; everything else in a Result is
	// deterministic for a seed.
	Events      int64
	WallSeconds float64
}

// Throughput returns committed transactions per (virtual) second.
func (r *Result) Throughput() float64 {
	if r.Duration == 0 {
		return 0
	}
	return float64(r.Counters.Committed()) / r.Duration.Seconds()
}

// EventsPerSec returns the scheduler's wall-clock event throughput — the
// harness speed metric tracked in BENCH_sim.json.
func (r *Result) EventsPerSec() float64 {
	if r.WallSeconds <= 0 {
		return 0
	}
	return float64(r.Events) / r.WallSeconds
}

// Run executes the workload with the configured worker count for warmup +
// measure virtual time and returns the measured-window result. The
// environment is shut down afterwards; a Cluster is single-use.
func (c *Cluster) Run(warmup, measure sim.Time) *Result {
	wallStart := time.Now()
	for _, n := range c.ctx.Nodes {
		for w := 0; w < c.cfg.WorkersPerNode; w++ {
			rng := c.env.Rand().Fork(uint64(n.ID())<<16 | uint64(w))
			// Workers are continuation-driven state machines (see
			// engine.Context.StartWorker): each one is a chain of scheduled
			// callbacks, so a run's schedule is fully determined by the
			// seed and the spawn order here.
			c.ctx.StartWorker(c.eng, n, rng)
		}
	}
	c.env.RunUntil(warmup)
	c.ctx.SetMeasuring(true)
	swBefore := c.ctx.Sw.Stats
	c.env.RunUntil(warmup + measure)
	c.ctx.SetMeasuring(false)
	res := &Result{
		Engine:      c.eng.Name(),
		EngineLabel: c.eng.Label(),
		Scheme:      c.ctx.Scheme.Name(),
		Workload:    c.gen.Name(),
		Duration:    measure,
		SwitchTxns:  c.ctx.Sw.Stats.Txns - swBefore.Txns,
		Recircs:     c.ctx.Sw.Stats.Recircs - swBefore.Recircs,
		Events:      c.env.Events(),
		WallSeconds: time.Since(wallStart).Seconds(),
	}
	res.Migrations, res.Promoted, res.Demoted, res.FenceWaits = c.ctx.AdaptiveCounters()
	for _, n := range c.ctx.Nodes {
		res.Counters.Merge(n.Counters())
		res.Breakdown.Merge(n.Breakdown())
		res.Latency.Merge(n.Latency())
	}
	if c.cfg.Fault != nil && c.recovery == nil {
		panic(fmt.Sprintf("core: fault scheduled at %v never fired (run ended at %v)", c.cfg.Fault.At, c.env.Now()))
	}
	res.Recovery = c.recovery
	if c.cfg.CaptureState {
		res.StateDigest = c.StateDigest()
	}
	c.env.Shutdown()
	return res
}
