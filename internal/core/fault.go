package core

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/netsim"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wal"
)

// FaultKind selects which component a FaultPlan crashes.
type FaultKind int

const (
	// SwitchCrash wipes the switch register file, locks and GID counter
	// mid-run; recovery rebuilds the registers by replaying every node's
	// switch records in GID order, gap-fitting the records whose response
	// was still in flight (Section 6.1 / Figure 9). Requires an engine
	// that offloaded tuples into the switch.
	SwitchCrash FaultKind = iota + 1
	// NodeCrash fails one database node; recovery redoes its partition
	// from the committed cold records of all node logs (merged in LSN
	// order) onto the load-time baseline image and verifies the rebuilt
	// partition against the live one — rows mid-update (exclusively
	// locked) at the crash instant are the only tolerated difference.
	NodeCrash
	// CoordCrash is a NodeCrash of a node in its 2PC-coordinator role:
	// the same redo applies, and under presumed abort every transaction
	// the crashed coordinator had not logged a commit record for resolves
	// to abort — exactly the rows the lock probe reports as in-doubt.
	CoordCrash
	// SequencerCrash fails the calvin epoch sequencer; a standby takes
	// over by replaying the epoch log (batch sizes) against the logged
	// initial RNG state, reproducing the exact permutation stream before
	// adopting the sequencer role (engine.FailoverCalvinSequencer).
	SequencerCrash
)

// String returns the matrix cell label of the fault kind.
func (k FaultKind) String() string {
	switch k {
	case SwitchCrash:
		return "switch-crash"
	case NodeCrash:
		return "node-crash"
	case CoordCrash:
		return "coord-crash"
	case SequencerCrash:
		return "sequencer-failover"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultPlan schedules one seeded crash at a fixed virtual time. The crash
// handler runs synchronously inside its own event — it draws no random
// numbers and mutates no scheduled state — so the post-crash event
// schedule is bit-identical to the no-fault run's. (The one thing it may
// schedule is its own deferral: a SwitchCrash landing while a multipass
// transaction is between pipeline passes re-arms itself a few ns later,
// a pure observer event that reorders nothing — see injectFault.) That
// zero-perturbation discipline is what makes "recovered state equals the
// no-fault golden state" a meaningful per-cell oracle: any byte recovery
// fails to reconstruct shows up as a StateDigest mismatch.
type FaultPlan struct {
	Kind FaultKind
	// At is the virtual time the crash fires; it must lie inside the run
	// (a plan that never fires is a hard error at the end of Run).
	At sim.Time
	// Node is the crashed node for NodeCrash / CoordCrash.
	Node int
}

// RecoveryStats reports what recovery did; Result.Recovery carries it for
// runs with a FaultPlan.
type RecoveryStats struct {
	Kind string   // FaultKind label, e.g. "switch-crash"
	At   sim.Time // when the crash fired

	// LogRecords is the number of WAL records recovery scanned (switch
	// records for SwitchCrash, cold records for NodeCrash/CoordCrash,
	// epoch records for SequencerCrash) — the x-axis of the recovery
	// figure.
	LogRecords int

	SwitchReplayed int // switch transactions replayed in GID order
	ResponsesLost  int // executed-unacknowledged records fitted into GID gaps
	InFabric       int // intents whose packet never reached the switch (excluded)

	ColdRedone   int // committed cold records with writes on the crashed partition
	WritesRedone int // individual redo writes applied
	InDoubt      int // rows excused as exclusively locked (presumed abort resolves them)

	EpochsReplayed int // calvin epochs the standby sequencer replayed

	// RecoveryTime is the modeled recovery latency: one log-read per
	// scanned record plus one log-read-equivalent per replayed unit, at
	// the cost model's LogAppend rate. It is reported, not scheduled —
	// injecting it into the event queue would perturb the schedule and
	// destroy the digest-equality oracle.
	RecoveryTime sim.Time

	// Verified is set once the rebuilt state passed the in-simulation
	// cross-check against the live state (a failed check panics instead).
	Verified bool
}

// installFault validates the plan against the built cluster and arms the
// crash event. Called from NewCluster after the engine prepared, so the
// baseline snapshot exists and UseSwitch is known; armed before Run
// spawns the workers, so the one extra scheduled event shifts all event
// sequence numbers uniformly and the relative order of every pair of
// worker events is preserved.
func (c *Cluster) installFault(plan *FaultPlan) {
	if !c.cfg.Durable {
		panic("core: FaultPlan requires Config.Durable (nothing to recover from without a WAL)")
	}
	if c.cfg.Adaptive {
		panic("core: FaultPlan cannot be combined with Adaptive (live migration invalidates the offload baseline recovery replays from)")
	}
	if plan.At <= 0 {
		panic("core: FaultPlan.At must be a positive virtual time")
	}
	switch plan.Kind {
	case SwitchCrash:
		if !c.ctx.UseSwitch {
			panic(fmt.Sprintf("core: SwitchCrash on engine %q, which offloads nothing to the switch", c.eng.Name()))
		}
		// Track which packets the switch admitted so the crash handler can
		// split GID-less records into executed-unacknowledged (gap-fit)
		// and fabric-resident (excluded; they execute after recovery).
		c.ctx.Sw.TrackAdmissions()
	case NodeCrash, CoordCrash:
		if plan.Node < 0 || plan.Node >= c.cfg.Nodes {
			panic(fmt.Sprintf("core: FaultPlan.Node %d outside cluster of %d nodes", plan.Node, c.cfg.Nodes))
		}
		// The redo baseline is the crashed node's partition as loaded —
		// recovery replays committed writes on top of this image.
		c.redoBase = c.ctx.Nodes[plan.Node].Store().Clone()
	case SequencerCrash:
		if c.eng.Name() != "calvin" {
			panic(fmt.Sprintf("core: SequencerCrash on engine %q, which has no sequencer", c.eng.Name()))
		}
	default:
		panic(fmt.Sprintf("core: unknown FaultKind %d", int(plan.Kind)))
	}
	c.env.After(plan.At, func() { c.injectFault(plan) })
}

// faultRetry is the polling interval the crash event defers by while the
// switch pipeline holds an admitted-but-unfinished multipass transaction.
// It is well under the recirculation wait separating two passes, so the
// crash fires at the first instant the register file is consistent.
const faultRetry = 100 * sim.Nanosecond

// injectFault is the crash event: it destroys (or fails over) the target
// and runs recovery to completion synchronously, then lets the untouched
// event queue resume.
func (c *Cluster) injectFault(plan *FaultPlan) {
	if plan.Kind == SwitchCrash && c.ctx.Sw.MidPipeline() > 0 {
		// A multipass transaction is between passes: its earlier passes
		// live only in the register file, so the snapshot is not a state
		// any log replay can reproduce. Real hardware loses the packet
		// with the switch and the node re-sends it; the simulation cannot
		// cancel the in-flight pass continuation without perturbing the
		// schedule, so instead the crash defers — pure observer events
		// that mutate nothing and, like the arming event itself, shift
		// subsequent sequence draws uniformly without reordering any
		// existing pair.
		c.env.After(faultRetry, func() { c.injectFault(plan) })
		return
	}
	st := &RecoveryStats{Kind: plan.Kind.String(), At: c.env.Now()}
	switch plan.Kind {
	case SwitchCrash:
		c.crashSwitch(st)
	case NodeCrash, CoordCrash:
		c.crashNode(plan.Node, st)
	case SequencerCrash:
		st.EpochsReplayed = engine.FailoverCalvinSequencer(c.ctx)
		st.LogRecords = st.EpochsReplayed
		st.RecoveryTime = c.ctx.Costs.LogAppend * sim.Time(2*st.EpochsReplayed)
	}
	st.Verified = true
	c.recovery = st
}

// crashSwitch wipes and rebuilds the switch. The simulation grants one
// liberty over real hardware: the switch's admission table survives the
// crash, so recovery knows which GID-less intents were executed with the
// response lost in flight (they are fitted into their GID gaps) versus
// still in the lossless fabric (excluded; they execute naturally after
// recovery, and the restored GID counter hands them the GIDs they would
// have gotten). The admission table also pins the gap each lost-response
// record fills: two unacknowledged blind writes to the same register are
// order-ambiguous from the logs alone — any consistent order is a correct
// recovery, since nobody observed their results — but the digest oracle
// demands the order that actually executed. A real deployment replays
// every logged intent, relies on the switch deduplicating re-sent packets
// and accepts any log-consistent order for unacknowledged transactions;
// the register arithmetic is identical either way, and the replayed
// sequence is still verified against every logged read/write result
// (Figure 9's analysis) before it is accepted.
func (c *Cluster) crashSwitch(st *RecoveryStats) {
	sw := c.ctx.Sw
	pre := sw.Snapshot()
	nextGID := sw.NextGID()

	var parts []*wal.SwitchRecord
	for _, n := range c.ctx.Nodes {
		for _, rec := range n.Log().SwitchRecords() {
			st.LogRecords++
			switch {
			case rec.HasGID:
				parts = append(parts, rec)
			default:
				if gid, ok := sw.AdmittedGID(rec.TxnID); ok {
					// Executed, response lost in the crash: gap-fit at
					// the admitted GID. The record copy leaves the live
					// log untouched — the in-flight response will
					// back-fill the original when it arrives.
					cp := *rec
					cp.GID, cp.HasGID = gid, true
					parts = append(parts, &cp)
					st.ResponsesLost++
				} else {
					st.InFabric++
				}
			}
		}
	}
	if uint64(len(parts)) != nextGID {
		panic(fmt.Sprintf("core: switch recovery found %d logged intents for %d admitted transactions", len(parts), nextGID))
	}

	sw.Reset()
	sw.Restore(c.baseline)
	fresh := func() wal.Replayer {
		scratch := pisa.New(sim.NewEnv(0), c.cfg.Switch)
		scratch.Restore(c.baseline)
		return scratch
	}
	seq, err := wal.OrderRecords(parts, fresh)
	if err != nil {
		panic(fmt.Sprintf("core: switch recovery: %v", err))
	}
	for _, rec := range seq {
		sw.ApplyTxn(rec.Instrs)
	}
	sw.SetNextGID(nextGID)
	st.SwitchReplayed = len(seq)
	st.RecoveryTime = c.ctx.Costs.LogAppend * sim.Time(st.LogRecords+st.SwitchReplayed)

	post := sw.Snapshot()
	if ai, i, differ := post.Diff(pre); differ {
		aps := c.cfg.Switch.ArraysPerStage
		panic(fmt.Sprintf("core: switch recovery diverged at stage %d array %d index %d: rebuilt %d, lost state had %d",
			ai/aps, ai%aps, i, post.At(ai, i), pre.At(ai, i)))
	}
}

// crashNode rebuilds node id's partition from scratch: the committed cold
// records of ALL node logs (coordinators log the redo for their remote
// writes) are merged in LSN order, filtered to writes homed on the
// crashed partition, and applied to the load-time baseline image. The
// rebuilt partition must match the live one row for row; the only rows
// allowed to differ are those exclusively locked at the crash instant —
// in-flight (or in-doubt) transactions whose effects presumed-abort 2PC
// discards. The live store is left untouched, so the run continues as if
// a hot standby took over with zero loss.
func (c *Cluster) crashNode(id int, st *RecoveryStats) {
	type entry struct {
		rec      *wal.ColdRecord
		src, idx int
	}
	var entries []entry
	for _, n := range c.ctx.Nodes {
		for idx, rec := range n.Log().ColdRecords() {
			st.LogRecords++
			if rec.Committed {
				entries = append(entries, entry{rec, int(n.ID()), idx})
			}
		}
	}
	// Conflicting writers append strictly in serialization order (the
	// second acquires the row lock only after the first's post-append
	// release), so the LSN merge reproduces every row's commit order;
	// (src, idx) only breaks ties between non-conflicting records.
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.rec.LSN != b.rec.LSN {
			return a.rec.LSN < b.rec.LSN
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.idx < b.idx
	})

	target := netsim.NodeID(id)
	for _, e := range entries {
		hit := false
		for _, w := range e.rec.Writes {
			if c.gen.Home(w.Table, w.Key) != target {
				continue // write belongs to another partition
			}
			c.redoBase.Table(w.Table).Set(w.Key, w.Field, w.Value)
			st.WritesRedone++
			hit = true
		}
		if hit {
			st.ColdRedone++
		}
	}
	st.RecoveryTime = c.ctx.Costs.LogAppend * sim.Time(st.LogRecords+st.WritesRedone)

	live := c.ctx.Nodes[id].Store()
	locks := c.ctx.Nodes[id].Locks()
	for _, tid := range live.TableIDs() {
		lt, rt := live.Table(tid), c.redoBase.Table(tid)
		// Every row either side materialized is compared field by field
		// (absent reads as zero). A row both sides hold is visited twice,
		// so the excused ones are collected as a set.
		inDoubt := make(map[store.Key]struct{})
		check := func(k store.Key, _ []int64) {
			same := true
			for f := 0; f < lt.Fields(); f++ {
				same = same && lt.Get(k, f) == rt.Get(k, f)
			}
			switch {
			case same:
			case locks.LockedExclusive(lock.Key(store.Global(tid, k))):
				inDoubt[k] = struct{}{} // mid-update at the crash; presumed abort discards it
			default:
				panic(fmt.Sprintf("core: node %d recovery diverged at table %d key %d: redo %v, live %v",
					id, tid, k, rt.GetRow(k), lt.GetRow(k)))
			}
		}
		lt.Walk(check)
		rt.Walk(check)
		st.InDoubt += len(inDoubt)
	}
}
