package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hotset"
	"repro/internal/layout"
	"repro/internal/loadgen"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/twopc"
	"repro/internal/txnwire"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The per-layer ledger, taken from outside: every layer (= internal/<pkg>)
// is driven through its public functions only, fed the traced workload's
// own inputs — its generated transactions, its compiled switch packets,
// its lock sets, its pending-event depth. A unit cost (ns per operation)
// times the per-commit count the run's public counters give is that
// layer's share of the end-to-end µs per commit; what the shares do not
// explain is reported as ledger.unattributed_frac, not hidden.
//
// Unit costs are hot-cache numbers: a driver loops over one layer, the
// real run interleaves all of them over a working set far beyond the
// caches. The gap lands in the unattributed share by construction.

const (
	layerTxns    = 4096 // generated transactions each driver cycles through
	layerBatches = 5    // a unit cost is the fastest of this many batches
)

// fixture is the traced workload's own material for the layer drivers.
type fixture struct {
	cfg     core.Config
	gen     workload.Generator
	cluster *core.Cluster // fresh: built, never run
	txns    []*workload.Txn
	origins []netsim.NodeID
	depth   int // pending-event depth: one event per in-flight transaction
	batches int // timed batches per unit cost

	packets []*txnwire.Packet // switch packets of the transactions that touch switch-resident tuples
	hotOps  [][]layout.HotOp  // their uncompiled form

	opsPerTxn float64
	distFrac  float64 // share of transactions touching a node other than their origin
}

func newFixture(o options) *fixture {
	f := &fixture{batches: layerBatches}
	if o.quick {
		f.batches = 1
	}
	if s, ok := simSpecs[o.workload]; ok {
		f.cfg = s.config(o.seed)
		f.gen = s.generator()
		f.depth = f.cfg.Nodes * f.cfg.WorkersPerNode
	} else {
		sc := serveConfig(o.seed)
		f.cfg = sc.Core
		gen, err := workload.ByName(sc.Workload, sc.Core.Nodes)
		if err != nil {
			panic(fmt.Sprintf("benchmark: %v", err))
		}
		f.gen = gen
		f.depth = serveConns * serveWindow
	}
	f.cluster = core.NewCluster(f.cfg, f.gen)

	rng := sim.NewRNG(o.seed ^ 0xFEED)
	var ops, dist int
	for i := 0; i < layerTxns; i++ {
		origin := netsim.NodeID(rng.Intn(f.cfg.Nodes))
		txn := f.gen.Next(rng, origin)
		f.txns = append(f.txns, txn)
		f.origins = append(f.origins, origin)
		ops += len(txn.Ops)
		if txn.Distributed(origin) {
			dist++
		}
		if hops := f.hotForm(txn); hops != nil {
			f.hotOps = append(f.hotOps, hops)
			f.packets = append(f.packets, f.compile(hops, uint64(i+1)))
		}
	}
	f.opsPerTxn = float64(ops) / layerTxns
	f.distFrac = float64(dist) / layerTxns
	return f
}

// hotForm returns the switch sub-transaction of txn: the operations whose
// tuples are resident in the switch (all of them for a hot transaction, the
// hot part of a warm one), dependencies re-indexed within it; nil when the
// transaction touches no switch tuple.
func (f *fixture) hotForm(txn *workload.Txn) []layout.HotOp {
	idx := f.cluster.HotIndex()
	var hops []layout.HotOp
	at := make([]int, len(txn.Ops)) // position of each operation in hops, -1 if on a node
	for i, op := range txn.Ops {
		at[i] = -1
		if !idx.OnSwitch(op.TupleKey()) {
			continue
		}
		dep := -1
		if op.DependsOn >= 0 {
			dep = at[op.DependsOn]
		}
		at[i] = len(hops)
		hops = append(hops, layout.HotOp{
			Tuple:     layout.TupleID(op.TupleKey()),
			Op:        op.Kind.WireOp(),
			Operand:   op.Value,
			DependsOn: dep,
		})
	}
	return hops
}

// compile builds the switch packet the way a database node does: compile
// against the layout, then fill the processing information (Section 5.4).
func (f *fixture) compile(hops []layout.HotOp, id uint64) *txnwire.Packet {
	instrs, _, passes, err := layout.Compile(hops, f.cluster.Layout())
	if err != nil {
		panic(fmt.Sprintf("benchmark: hot transaction failed to compile: %v", err))
	}
	cfg := f.cluster.Switch().Config()
	left, right := true, false
	if cfg.FineLocks {
		left = false
		for _, in := range instrs {
			if int(in.Stage) < cfg.Stages/2 {
				left = true
			} else {
				right = true
			}
		}
	}
	return &txnwire.Packet{
		Header: txnwire.Header{IsMultipass: passes > 1, LockLeft: left, LockRight: right, TxnID: id},
		Instrs: instrs,
	}
}

// unitCost times batch (which performs and returns a number of operations)
// f.batches times after one untimed warm-up call and returns the fastest
// batch's ns per operation: like the round rates, interference only ever
// adds time.
func (f *fixture) unitCost(batch func() int) float64 {
	batch()
	best := 0.0
	for i := 0; i < f.batches; i++ {
		t0 := time.Now()
		n := batch()
		ns := float64(time.Since(t0).Nanoseconds()) / float64(n)
		if i == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// allocsPerOp counts heap allocations per operation of one batch.
func allocsPerOp(batch func() int) float64 {
	batch()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := batch()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// ledger collects layer metrics in print order.
type ledger struct {
	ms []metric
	tr *tracer
}

func (l *ledger) add(name, unit string, v float64) {
	l.ms = append(l.ms, metric{name, unit, v})
}

// layer runs one package's drivers inside a layer.<pkg> span.
func (l *ledger) layer(pkg string, fn func()) {
	end := l.tr.begin("layer."+pkg, 1)
	fn()
	end()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives every per-layer metric of a traced pass. A metric
// whose layer is not on the workload's path (txnwire on a simulator
// workload, lock on an all-hot one) still prints: its unit cost is what the
// layer would cost, its per-commit count is zero.
func layerMetrics(r *run, o options, tr *tracer) []metric {
	l := &ledger{tr: tr}
	f := newFixture(o)
	serve := r.streamCommits != 0

	commits := float64(r.engineCommits())
	perCommit := func(count float64) float64 { return ratio(count, commits) }

	var untraced, traced []float64
	for i, rate := range r.rates {
		if r.traced[i] {
			traced = append(traced, rate)
		} else {
			untraced = append(untraced, rate)
		}
	}
	usPerCommit := ratio(1e6, upperQuartile(untraced))
	eventsPerCommit := perCommit(r.events)
	switchPerCommit := ratio(float64(r.switchTxns), commits)
	abortsPerCommit := ratio(float64(r.counters.Aborts), float64(r.counters.Committed()))
	hotFrac := ratio(float64(r.counters.CommittedHot), float64(r.counters.Committed()))

	// attributed sums the layer shares in µs per commit; attributedEvents
	// the simulator events those shares already paid for.
	var attributed, attributedEvents float64

	var heapNs float64
	l.layer("sim", func() {
		var ringNs float64
		heapNs, ringNs = simDrivers(f)
		l.add("sim.heap_event_ns", "ns", heapNs)
		l.add("sim.ring_event_ns", "ns", ringNs)
		l.add("sim.events_per_s", "1/s", ratio(r.events, r.busyS))
		l.add("sim.events_per_commit", "count", eventsPerCommit)
	})

	var sendNs, sendEvents float64
	l.layer("netsim", func() {
		var rpcNs float64
		sendNs, sendEvents, rpcNs = netsimDrivers(f)
		l.add("netsim.send_ns", "ns", sendNs)
		l.add("netsim.rpc_ns", "ns", rpcNs)
		l.add("netsim.msgs_per_commit", "count", perCommit(r.msgs))
	})

	l.layer("lock", func() {
		okNs, conflictNs := lockDrivers(f)
		granted, failed := perCommit(r.lockOps-r.lockFails), perCommit(r.lockFails)
		l.add("lock.acquire_release_ns", "ns", okNs)
		l.add("lock.conflict_ns", "ns", conflictNs)
		l.add("lock.ops_per_commit", "count", granted+failed)
		attributed += (granted*okNs + failed*conflictNs) / 1e3
	})

	// Distributed commits go through two-phase commit. With the switch in
	// use, hot transactions bypass it and the rest take the multicast form.
	useSwitch := f.cluster.EngineContext().UseSwitch
	offSwitch := 1.0 // share of commits executed on the nodes
	if useSwitch {
		offSwitch = 1 - hotFrac
	}
	twopcPerCommit := f.distFrac * offSwitch
	l.layer("twopc", func() {
		d := twopcDrivers(f)
		l.add("twopc.commit_ns", "ns", d.commitNs)
		l.add("twopc.switch_commit_ns", "ns", d.switchNs)
		l.add("twopc.events_per_commit", "count", d.commitEvents)
		ns, ev, msgs := d.commitNs, d.commitEvents, d.commitMsgs
		if useSwitch {
			ns, ev, msgs = d.switchNs, d.switchEvents, d.switchMsgs
		}
		attributed += twopcPerCommit * ns / 1e3
		attributedEvents += twopcPerCommit * ev
		// Messages two-phase commit did not send are plain sends.
		if other := perCommit(r.msgs) - twopcPerCommit*msgs; other > 0 {
			attributed += other * sendNs / 1e3
			attributedEvents += other * sendEvents
		}
	})

	var intentNs float64
	l.layer("wal", func() {
		var coldNs float64
		intentNs, coldNs = walDrivers(f)
		l.add("wal.append_intent_ns", "ns", intentNs)
		l.add("wal.append_cold_ns", "ns", coldNs)
		l.add("wal.bytes_per_commit", "B", ratio(float64(r.walBytes), float64(r.walRecords)))
		if f.cfg.Durable {
			attributed += offSwitch * coldNs / 1e3
		}
	})

	l.layer("pisa", func() {
		execNs, execEvents, compileNs, lookupNs, codecNs := switchDrivers(f)
		l.add("pisa.exec_ns", "ns", execNs)
		l.add("pisa.passes_per_txn", "count", ratio(float64(r.passes), float64(r.switchTotal)))
		l.add("pisa.switch_txns_per_commit", "count", switchPerCommit)
		l.add("layout.compile_ns", "ns", compileNs)
		l.add("hotset.lookup_ns", "ns", lookupNs)
		l.add("txnwire.packet_codec_ns", "ns", codecNs)
		perSwitchTxn := execNs + compileNs + codecNs
		if f.cfg.Durable {
			perSwitchTxn += intentNs
		}
		// Classifying a transaction probes the hot index once per operation.
		attributed += (switchPerCommit*perSwitchTxn + (1+abortsPerCommit)*f.opsPerTxn*lookupNs) / 1e3
		attributedEvents += switchPerCommit * execEvents
	})

	l.layer("setup", func() {
		detectS, optimalS := setupDrivers(f)
		l.add("hotset.detect_s", "s", detectS)
		l.add("layout.optimal_s", "s", optimalS)
		l.add("core.setup_other_s", "s", median(r.setup)-detectS-optimalS)
	})

	l.layer("store", func() {
		getNs, addNs := storeDrivers(f)
		l.add("store.get_ns", "ns", getNs)
		l.add("store.add_ns", "ns", addNs)
		// Operations the switch does not execute run against node stores,
		// once per attempt.
		nodeOps := (1 + abortsPerCommit) * f.opsPerTxn * (1 - switchPerCommit)
		if nodeOps > 0 {
			attributed += nodeOps * (getNs + addNs) / 2 / 1e3
		}
	})

	l.layer("workload", func() {
		nextNs, nextAllocs := workloadDrivers(f)
		l.add("workload.next_ns", "ns", nextNs)
		l.add("workload.next_allocs", "count", nextAllocs)
		l.add("workload.ops_per_txn", "count", f.opsPerTxn)
		if !serve { // the serving run draws from a pre-generated pool
			attributed += nextNs / 1e3
		}
	})

	l.layer("engine", func() {
		l.add("engine.aborts_per_commit", "count", abortsPerCommit)
		l.add("engine.hot_frac", "frac", hotFrac)
		l.add("engine.warm_frac", "frac", ratio(float64(r.counters.CommittedWarm), float64(r.counters.Committed())))
		l.add("engine.cold_frac", "frac", ratio(float64(r.counters.CommittedCold), float64(r.counters.Committed())))
		var total sim.Time
		for _, c := range metrics.Components() {
			total += r.breakdown.Total(c)
		}
		for _, c := range metrics.Components() {
			name := strings.ReplaceAll(strings.ToLower(c.String()), " ", "_")
			l.add("engine.vshare."+name, "frac", ratio(float64(r.breakdown.Total(c)), float64(total)))
		}
	})

	var submitUs float64
	l.layer("core", func() {
		var submitAllocs float64
		submitUs, submitAllocs = submitDrivers(f)
		l.add("core.submit_us", "us", submitUs)
		l.add("core.submit_allocs", "count", submitAllocs)
	})

	var codecUs, clientSendNs, serverUs float64
	l.layer("txnwire", func() {
		d := wireDrivers(f)
		l.add("txnwire.req_encode_ns", "ns", d.reqEncodeNs)
		l.add("txnwire.req_decode_ns", "ns", d.reqDecodeNs)
		l.add("txnwire.reply_encode_ns", "ns", d.replyEncodeNs)
		l.add("txnwire.reply_decode_ns", "ns", d.replyDecodeNs)
		l.add("txnwire.req_bytes", "B", d.reqBytes)
		codecUs = (d.reqEncodeNs + d.reqDecodeNs + d.replyEncodeNs + d.replyDecodeNs) / 1e3
		clientSendNs = d.clientSendNs
	})

	l.layer("serve", func() {
		l.add("loadgen.send_ns", "ns", clientSendNs)
		l.add("loadgen.lat_p50_us", "us", percentile(&r.lat, 50)/1e3)
		l.add("loadgen.lat_p95_us", "us", percentile(&r.lat, 95)/1e3)
		l.add("loadgen.lat_p99_us", "us", percentile(&r.lat, 99)/1e3)
		l.add("loadgen.lat_p999_us", "us", percentile(&r.lat, 99.9)/1e3)
		if serve {
			// What the engine, the codec and the client's framing do not
			// explain: accept/read/write goroutines, channel hand-offs,
			// the kernel's loopback TCP and the scheduler.
			serverUs = usPerCommit - submitUs - codecUs - clientSendNs/1e3
		}
		l.add("server.us_per_commit", "us", serverUs)
		l.add("server.cpu_us_per_commit", "us", ratio(r.cpuS*1e6, float64(r.commits)))
		l.add("server.retries_per_commit", "count", ratio(float64(r.retries), commits))
	})

	var histNs float64
	l.layer("metrics", func() {
		histNs = histDriver(f)
		l.add("metrics.hist_record_ns", "ns", histNs)
		attributed += histNs / 1e3
	})

	l.add("round.commits_per_s", "1/s", upperQuartile(untraced))
	l.add("round.rate_mean", "1/s", ratio(float64(r.commits), r.busyS))
	l.add("round.rate_median", "1/s", median(untraced))
	l.add("round.rate_iqr_frac", "frac", iqrFrac(untraced))
	l.add("trace.overhead_frac", "frac", 1-ratio(upperQuartile(traced), upperQuartile(untraced)))
	if serve {
		// The serving ledger is engine + codec + client framing + the
		// server residual; only the residual is not measured directly.
		l.add("ledger.unattributed_frac", "frac", ratio(serverUs, usPerCommit))
	} else {
		if rest := eventsPerCommit - attributedEvents; rest > 0 {
			attributed += rest * heapNs / 1e3
		}
		l.add("ledger.unattributed_frac", "frac", 1-ratio(attributed, usPerCommit))
	}
	return l.ms
}

// simDrivers times one scheduler event on the timed heap, with `depth`
// timers pending (a rotating population, the shape of a worker pool), and
// on the same-instant ring (an After(0) cascade).
func simDrivers(f *fixture) (heapNs, ringNs float64) {
	const events = 1 << 20
	heapNs = f.unitCost(func() int {
		env := sim.NewEnv(1)
		n := 0
		var rearm func()
		rearm = func() {
			if n < events {
				n++
				env.After(sim.Time(1+n%97), rearm)
			}
		}
		for i := 0; i < f.depth; i++ {
			env.After(sim.Time(i+1), rearm)
		}
		env.Run()
		return events
	})
	ringNs = f.unitCost(func() int {
		env := sim.NewEnv(1)
		n := 0
		var fire func()
		fire = func() {
			if n < events {
				n++
				env.After(0, fire)
			}
		}
		env.After(0, fire)
		env.Run()
		return events
	})
	return heapNs, ringNs
}

// netsimDrivers times a one-way Send including its delivery (and reports
// the scheduler events one send costs, < 1 when deliveries coalesce), and
// a full RPCK round trip. Sends go out in bursts of `depth` between
// drains, spread over all node pairs.
func netsimDrivers(f *fixture) (sendNs, sendEvents, rpcNs float64) {
	nodes := f.cfg.Nodes
	env := sim.NewEnv(1)
	nw := netsim.New(env, nodes, f.cfg.Latency)
	noop := func() {}
	const sends = 1 << 18
	var events int64
	sendNs = f.unitCost(func() int {
		e0 := env.Events()
		for i := 0; i < sends; {
			for j := 0; j < f.depth && i < sends; j, i = j+1, i+1 {
				nw.Send(netsim.NodeID(i%nodes), netsim.NodeID((i/nodes+i+1)%nodes), noop)
			}
			env.Run()
		}
		events = env.Events() - e0
		return sends
	})
	sendEvents = float64(events) / sends

	const rpcs = 1 << 17
	handler := func(done func()) { done() }
	rpcNs = f.unitCost(func() int {
		issued := 0
		var next func()
		next = func() {
			if issued < rpcs {
				issued++
				nw.RPCK(netsim.NodeID(issued%nodes), netsim.NodeID((issued+1)%nodes), handler, next)
			}
		}
		for i := 0; i < f.depth; i++ {
			next()
		}
		env.Run()
		return rpcs
	})
	return sendNs, sendEvents, rpcNs
}

// lockDrivers times the lock table on the workload's own lock sets: a
// pooled transaction context acquires every row of a transaction and
// releases them (cost per granted lock), and an exclusive request meets a
// held row under NO_WAIT (cost per refused lock).
func lockDrivers(f *fixture) (okNs, conflictNs float64) {
	env := sim.NewEnv(1)
	tb := lock.NewTable(env, f.cfg.Policy)
	granted := func(error) {}
	txn := lock.NewTxn(1)
	ts := uint64(1)
	okNs = f.unitCost(func() int {
		n := 0
		for _, t := range f.txns {
			ts++
			txn.Reset(ts)
			for _, op := range t.Ops {
				mode := lock.Shared
				if op.Kind != workload.Read {
					mode = lock.Exclusive
				}
				tb.AcquireK(txn, lock.Key(op.LockKey()), mode, granted)
				n++
			}
			tb.ReleaseAll(txn)
		}
		env.Run()
		return n
	})

	holder := lock.NewTxn(0)
	nowait := lock.NewTable(env, lock.NoWait)
	for _, op := range f.txns[0].Ops {
		nowait.AcquireK(holder, lock.Key(op.LockKey()), lock.Exclusive, granted)
	}
	conflictNs = f.unitCost(func() int {
		n := 0
		for i := 0; i < 1<<14; i++ {
			ts++
			txn.Reset(ts)
			for _, op := range f.txns[0].Ops {
				nowait.AcquireK(txn, lock.Key(op.LockKey()), lock.Exclusive, granted)
				n++
			}
			nowait.ReleaseAll(txn)
		}
		env.Run()
		return n
	})
	return okNs, conflictNs
}

type twopcCosts struct {
	commitNs, commitEvents, commitMsgs float64
	switchNs, switchEvents, switchMsgs float64
}

// twopcDrivers times a two-participant commit in both forms: classic
// (vote round + decision round) and the switch form (vote round, switch
// sub-transaction, decision multicast in the data plane).
func twopcDrivers(f *fixture) twopcCosts {
	env := sim.NewEnv(1)
	nw := netsim.New(env, f.cfg.Nodes, f.cfg.Latency)
	noop := func() {}
	yes := func(done func(bool)) { done(true) }
	const commits = 1 << 15
	drive := func(start func(coord *twopc.Coordinator, parts []twopc.Participant, k func(bool))) (ns, events, msgs float64) {
		coords := make([]*twopc.Coordinator, f.cfg.Nodes)
		parts := make([][]twopc.Participant, f.cfg.Nodes)
		for i := range coords {
			coords[i] = twopc.NewCoordinator(nw, netsim.NodeID(i))
			for _, n := range []int{i, (i + 1) % f.cfg.Nodes} {
				parts[i] = append(parts[i], twopc.Participant{Node: netsim.NodeID(n), PrepareK: yes, Commit: noop, Abort: noop})
			}
		}
		var e, m int64
		ns = f.unitCost(func() int {
			e0, m0 := env.Events(), nw.MsgsSent
			issued := 0
			var next func(bool)
			next = func(bool) {
				if issued < commits {
					i := issued % f.cfg.Nodes
					issued++
					start(coords[i], parts[i], next)
				}
			}
			for i := 0; i < f.depth; i++ {
				next(true)
			}
			env.Run()
			e, m = env.Events()-e0, nw.MsgsSent-m0
			return commits
		})
		return ns, float64(e) / commits, float64(m) / commits
	}
	var c twopcCosts
	c.commitNs, c.commitEvents, c.commitMsgs = drive(func(coord *twopc.Coordinator, parts []twopc.Participant, k func(bool)) {
		coord.CommitK(parts, k)
	})
	switchTxn := func(done func()) { done() }
	c.switchNs, c.switchEvents, c.switchMsgs = drive(func(coord *twopc.Coordinator, parts []twopc.Participant, k func(bool)) {
		coord.CommitWithSwitchK(parts, switchTxn, k)
	})
	return c
}

// walDrivers times log appends with the workload's own records: the
// switch intent of its compiled packets and the redo image of its write
// sets. A batch appends to a fresh log so retention cost stays amortized
// the way a run's is.
func walDrivers(f *fixture) (intentNs, coldNs float64) {
	if len(f.packets) > 0 {
		intentNs = f.unitCost(func() int {
			log := wal.NewLog(0)
			for rep := 0; rep < 8; rep++ {
				for _, p := range f.packets {
					log.AppendSwitchIntent(p.Header.TxnID, p.Instrs)
				}
			}
			return 8 * len(f.packets)
		})
	}
	writes := make([][]wal.ColdWrite, 0, len(f.txns))
	for _, t := range f.txns {
		var ws []wal.ColdWrite
		for _, op := range t.Ops {
			if op.Kind != workload.Read {
				ws = append(ws, wal.ColdWrite{Table: op.Table, Key: op.Key, Field: op.Field, Value: op.Value})
			}
		}
		if len(ws) > 0 {
			writes = append(writes, ws)
		}
	}
	if len(writes) > 0 {
		coldNs = f.unitCost(func() int {
			log := wal.NewLog(0)
			for rep := 0; rep < 8; rep++ {
				for i, ws := range writes {
					log.AppendCold(uint64(i+1), ws)
				}
			}
			return 8 * len(writes)
		})
	}
	return intentNs, coldNs
}

// switchDrivers times the hot path's layers on the workload's own hot
// transactions against the fixture cluster's layout and register file:
// pisa.ExecK (in-switch time only, plus the events it schedules),
// layout.Compile, the hot-index probe, and the packet's wire round trip.
func switchDrivers(f *fixture) (execNs, execEvents, compileNs, lookupNs, codecNs float64) {
	idx := f.cluster.HotIndex()
	var sinkSlot layout.Slot
	lookupNs = f.unitCost(func() int {
		n := 0
		for _, t := range f.txns {
			for _, op := range t.Ops {
				if s, ok := idx.Lookup(op.TupleKey()); ok {
					sinkSlot = s
				}
				n++
			}
		}
		return n
	})
	_ = sinkSlot
	if len(f.packets) == 0 {
		return 0, 0, 0, lookupNs, 0
	}

	env, sw := f.cluster.Env(), f.cluster.Switch()
	onResp := func(_ *txnwire.Response, err error) {
		if err != nil {
			panic(fmt.Sprintf("benchmark: switch rejected packet: %v", err))
		}
	}
	// One packet in the pipeline at a time: in-switch cost without the
	// admission queueing a burst would add.
	var events int64
	execNs = f.unitCost(func() int {
		e0 := env.Events()
		for _, p := range f.packets {
			sw.ExecK(p, onResp)
			env.Run()
		}
		events = env.Events() - e0
		return len(f.packets)
	})
	execEvents = float64(events) / float64(len(f.packets))

	lay := f.cluster.Layout()
	compileNs = f.unitCost(func() int {
		for _, hops := range f.hotOps {
			if _, _, _, err := layout.Compile(hops, lay); err != nil {
				panic(err)
			}
		}
		return len(f.hotOps)
	})

	codecNs = f.unitCost(func() int {
		for _, p := range f.packets {
			buf, err := txnwire.Encode(p)
			if err != nil {
				panic(err)
			}
			if _, err := txnwire.Decode(buf); err != nil {
				panic(err)
			}
		}
		return len(f.packets)
	})
	return execNs, execEvents, compileNs, lookupNs, codecNs
}

// setupDrivers times the two solvers inside a cold build on the run's own
// detection sample (drawn exactly as core.NewCluster draws it).
func setupDrivers(f *fixture) (detectS, optimalS float64) {
	rng := sim.NewRNG(f.cfg.Seed ^ 0x5EED)
	samples := make([][]hotset.Access, 0, f.cfg.SampleTxns)
	for i := 0; i < f.cfg.SampleTxns; i++ {
		txn := f.gen.Next(rng, netsim.NodeID(i%f.cfg.Nodes))
		accs := make([]hotset.Access, len(txn.Ops))
		for j, op := range txn.Ops {
			accs[j] = hotset.Access{Key: op.TupleKey(), DependsOn: op.DependsOn}
		}
		samples = append(samples, accs)
	}
	capacity := f.cfg.Switch.Capacity()
	var hs *hotset.HotSet
	t0 := time.Now()
	hs = hotset.DetectAuto(samples, capacity)
	detectS = time.Since(t0).Seconds()

	spec := layout.Spec{
		Stages:         f.cfg.Switch.Stages,
		ArraysPerStage: f.cfg.Switch.ArraysPerStage,
		SlotsPerArray:  f.cfg.Switch.SlotsPerArray,
	}
	g := hs.Graph()
	t1 := time.Now()
	layout.Optimal(g, spec)
	optimalS = time.Since(t1).Seconds()
	return detectS, optimalS
}

// storeDrivers times point reads and in-place adds on the fixture
// cluster's populated partitions, at the workload's own keys.
func storeDrivers(f *fixture) (getNs, addNs float64) {
	type access struct {
		tb *store.Table
		op workload.Op
	}
	var accs []access
	for _, t := range f.txns {
		for _, op := range t.Ops {
			tb := f.cluster.Node(int(op.Home)).Store().Lookup(op.Table)
			if tb == nil {
				continue
			}
			accs = append(accs, access{tb: tb, op: op})
		}
	}
	if len(accs) == 0 {
		return 0, 0
	}
	var sink int64
	getNs = f.unitCost(func() int {
		for _, a := range accs {
			sink += a.tb.Get(a.op.Key, a.op.Field)
		}
		return len(accs)
	})
	addNs = f.unitCost(func() int {
		for _, a := range accs {
			sink += a.tb.Add(a.op.Key, a.op.Field, 1)
		}
		return len(accs)
	})
	_ = sink
	return getNs, addNs
}

// workloadDrivers times the generator.
func workloadDrivers(f *fixture) (nextNs, nextAllocs float64) {
	rng := sim.NewRNG(f.cfg.Seed ^ 0xABCD)
	var sink *workload.Txn
	batch := func() int {
		for i := 0; i < 1<<15; i++ {
			sink = f.gen.Next(rng, netsim.NodeID(i%f.cfg.Nodes))
		}
		return 1 << 15
	}
	nextNs = f.unitCost(batch)
	nextAllocs = allocsPerOp(batch)
	_ = sink
	return nextNs, nextAllocs
}

// submitDrivers times the engine as the serving tier sees it, without
// TCP: Driver.Submit of the workload's transactions, 16 in flight, then
// Drain. This consumes the fixture cluster.
func submitDrivers(f *fixture) (us, allocs float64) {
	drv := core.NewDriver(f.cluster)
	done := func(engine.Class, int) {}
	const inflight = serveConns * serveWindow
	batch := func() int {
		for i := 0; i < len(f.txns); i += inflight {
			for j := i; j < i+inflight && j < len(f.txns); j++ {
				drv.Submit(f.origins[j], f.txns[j], done)
			}
			drv.Drain()
		}
		return len(f.txns)
	}
	us = f.unitCost(batch) / 1e3
	allocs = allocsPerOp(batch)
	return us, allocs
}

type wireCosts struct {
	reqEncodeNs, reqDecodeNs     float64
	replyEncodeNs, replyDecodeNs float64
	reqBytes                     float64
	clientSendNs                 float64
}

// discardConn is a net.Conn whose writes vanish: it isolates
// loadgen.Client.Send (encode + framing + buffered write) from the kernel.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Read([]byte) (int, error)    { return 0, io.EOF }
func (discardConn) Close() error                { return nil }

// wireDrivers times the four envelope codec directions on the workload's
// own transactions, and the client's Send path.
func wireDrivers(f *fixture) wireCosts {
	var c wireCosts
	var req txnwire.TxnRequest
	var buf []byte
	payloads := make([][]byte, len(f.txns))
	var bytes int
	for i, t := range f.txns {
		if err := workload.TxnToRequest(t, uint64(i+1), f.origins[i], &req); err != nil {
			panic(err)
		}
		p, err := txnwire.AppendTxnRequest(nil, &req)
		if err != nil {
			panic(err)
		}
		payloads[i] = p
		bytes += len(p) + 5 // frame header: u32 length + u8 type
	}
	c.reqBytes = float64(bytes) / float64(len(f.txns))

	c.reqEncodeNs = f.unitCost(func() int {
		for i, t := range f.txns {
			if err := workload.TxnToRequest(t, uint64(i+1), f.origins[i], &req); err != nil {
				panic(err)
			}
			var err error
			if buf, err = txnwire.AppendTxnRequest(buf[:0], &req); err != nil {
				panic(err)
			}
		}
		return len(f.txns)
	})
	var decoded txnwire.TxnRequest
	var txn workload.Txn
	c.reqDecodeNs = f.unitCost(func() int {
		for _, p := range payloads {
			if err := txnwire.DecodeTxnRequestInto(&decoded, p); err != nil {
				panic(err)
			}
			if err := workload.TxnFromRequest(&decoded, &txn); err != nil {
				panic(err)
			}
		}
		return len(payloads)
	})

	rep := txnwire.TxnReply{Status: txnwire.StatusCommitted, Class: 1, Resp: txnwire.Response{TxnID: 7, GID: 9}}
	c.replyEncodeNs = f.unitCost(func() int {
		for i := 0; i < 1<<16; i++ {
			rep.Resp.TxnID = uint64(i)
			var err error
			if buf, err = txnwire.AppendTxnReplyFrame(buf[:0], &rep); err != nil {
				panic(err)
			}
		}
		return 1 << 16
	})
	frame, err := txnwire.AppendTxnReply(nil, &rep)
	if err != nil {
		panic(err)
	}
	var got txnwire.TxnReply
	c.replyDecodeNs = f.unitCost(func() int {
		for i := 0; i < 1<<16; i++ {
			if err := txnwire.DecodeTxnReplyInto(&got, frame); err != nil {
				panic(err)
			}
		}
		return 1 << 16
	})

	cl := loadgen.NewClient(discardConn{})
	c.clientSendNs = f.unitCost(func() int {
		for i, t := range f.txns {
			if _, err := cl.Send(t, f.origins[i]); err != nil {
				panic(err)
			}
			if i%serveWindow == serveWindow-1 {
				if err := cl.Flush(); err != nil {
					panic(err)
				}
			}
		}
		return len(f.txns)
	})
	return c
}

// histDriver times metrics.LatencyHist.Record, the per-commit accounting
// every engine path pays.
func histDriver(f *fixture) float64 {
	var h metrics.LatencyHist
	return f.unitCost(func() int {
		for i := 0; i < 1<<20; i++ {
			h.Record(sim.Time(1000 + i&0xFFFF))
		}
		return 1 << 20
	})
}
