// Package twopc implements the two-phase commit protocol of P4DB's host
// DBMS, including the paper's extension for warm transactions (Figure 10):
// after a successful voting phase, the coordinator sends the switch
// sub-transaction to the switch, which executes it and multicasts the
// commit decision (with the switch results) to all participants in the
// data plane — saving the dedicated decision round trip of classic 2PC.
package twopc

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Participant is one node's involvement in a distributed transaction. The
// handlers run "at" the participant on the simulated timeline. Prepare may
// block (e.g. while flushing a log record) and therefore runs in a
// process; Commit and Abort apply already-validated state (release locks,
// install buffered writes) and run as callback events — they must not
// block, which lets the decision round and the switch multicast deliver
// them without any goroutine switches.
type Participant struct {
	Node netsim.NodeID
	// Prepare validates and persists the participant's sub-transaction;
	// it returns the participant's vote. It may block.
	Prepare func(p *sim.Proc) bool
	// PrepareK is the continuation form of Prepare: it must eventually call
	// done with the vote (possibly after scheduled waits such as a log
	// flush). The coordinator's continuation-form methods use PrepareK; the
	// process-form methods use Prepare. Builders set both so either driver
	// works.
	PrepareK func(done func(bool))
	// Commit applies and releases the sub-transaction. It must not block.
	Commit func()
	// Abort rolls the sub-transaction back and releases it. It must not
	// block.
	Abort func()
}

// Stats counts protocol outcomes.
type Stats struct {
	Commits int64
	Aborts  int64
}

// Coordinator drives commits for one node.
type Coordinator struct {
	net  *netsim.Network
	self netsim.NodeID

	// mcastFree recycles multicast frames so the warm commit path stays
	// allocation-free at steady state regardless of cluster size.
	mcastFree []*mcastFrame
	// switchFree recycles Decision&Switch phase frames the same way.
	switchFree []*switchFrame

	// Stats is exported for benchmarks.
	Stats Stats
}

// mcastFrame is the in-flight state of one switch multicast: the
// participants to commit, the sorted distinct multicast group, and a
// countdown of pending deliveries. The deliver method value is cached at
// frame creation so the whole fan-out — group build, scheduling through
// the per-node batchers, delivery, recycling — allocates nothing once the
// coordinator's free list is warm.
type mcastFrame struct {
	c         *Coordinator
	parts     []Participant
	nodes     []netsim.NodeID
	remaining int
	deliverFn func(int)
}

// addNode inserts id into the sorted group, skipping duplicates.
// Participant lists hold one entry per involved node (a handful at most),
// so an insertion scan beats sorting machinery and allocates nothing.
func (f *mcastFrame) addNode(id netsim.NodeID) {
	i := 0
	for i < len(f.nodes) && f.nodes[i] < id {
		i++
	}
	if i < len(f.nodes) && f.nodes[i] == id {
		return
	}
	f.nodes = append(f.nodes, 0)
	copy(f.nodes[i+1:], f.nodes[i:])
	f.nodes[i] = id
}

// deliver runs at one multicast target: every participant hosted on that
// node commits as a callback event, preserving the participants' declared
// order within the node. The frame recycles itself when the last target
// has been delivered.
func (f *mcastFrame) deliver(id int) {
	env := f.c.net.Env()
	node := netsim.NodeID(id)
	for _, part := range f.parts {
		if part.Node == node {
			// Commit handlers are non-blocking by contract, so the
			// multicast arrival delivers them as callback events.
			env.After(0, part.Commit)
		}
	}
	if f.remaining--; f.remaining == 0 {
		f.c.putFrame(f)
	}
}

// takeFrame returns a reset frame from the free list, or a fresh one with
// its deliver method value pre-bound.
func (c *Coordinator) takeFrame() *mcastFrame {
	if n := len(c.mcastFree); n > 0 {
		f := c.mcastFree[n-1]
		c.mcastFree = c.mcastFree[:n-1]
		return f
	}
	f := &mcastFrame{c: c}
	f.deliverFn = f.deliver
	return f
}

// putFrame clears a frame's references and recycles it.
func (c *Coordinator) putFrame(f *mcastFrame) {
	for i := range f.parts {
		f.parts[i] = Participant{}
	}
	f.parts = f.parts[:0]
	f.nodes = f.nodes[:0]
	c.mcastFree = append(c.mcastFree, f)
}

// multicastCommit delivers every participant's Commit through the switch's
// targeted multicast: one delivery per distinct participant node (ascending
// node order, matching the data-plane replication order), nothing at idle
// nodes. The frame stays live until its last delivery lands, so multiple
// multicasts from one coordinator may be in flight concurrently.
func (c *Coordinator) multicastCommit(parts []Participant) {
	if len(parts) == 0 {
		return
	}
	f := c.takeFrame()
	f.parts = append(f.parts, parts...)
	for _, part := range parts {
		f.addNode(part.Node)
	}
	f.remaining = len(f.nodes)
	c.net.SwitchMulticastTo(f.nodes, f.deliverFn)
}

// NewCoordinator creates a coordinator running on node self.
func NewCoordinator(net *netsim.Network, self netsim.NodeID) *Coordinator {
	return &Coordinator{net: net, self: self}
}

// Commit runs classic 2PC over the participants: a parallel prepare round
// collecting votes, then a parallel commit (or abort) round. It returns
// whether the transaction committed. A participant co-located with the
// coordinator is handled without network hops by netsim.
func (c *Coordinator) Commit(p *sim.Proc, parts []Participant) bool {
	votes := c.vote(p, parts)
	if votes {
		c.finish(p, parts, true)
		c.Stats.Commits++
		return true
	}
	c.finish(p, parts, false)
	c.Stats.Aborts++
	return false
}

// CommitWithSwitch runs the combined Decision&Switch phase for warm
// transactions. After all participants vote yes, the coordinator sends the
// switch sub-transaction (half an RTT away); switchTxn executes it at the
// switch and returns an opaque result. The switch then multicasts the
// decision: every participant's Commit handler runs when the multicast
// arrives, without further round trips, and the coordinator resumes at the
// same instant (it is one of the multicast targets). On a no vote the
// switch transaction is never sent and a classic abort round runs instead.
//
// When the warm transaction has no remote participants, the voting phase
// is skipped entirely (Section 6.2).
func (c *Coordinator) CommitWithSwitch(p *sim.Proc, parts []Participant, switchTxn func(sub *sim.Proc)) bool {
	remote := remoteParts(parts, c.self)
	if len(remote) > 0 {
		if !c.voteSubset(p, remote) {
			c.finish(p, parts, false)
			c.Stats.Aborts++
			return false
		}
	}
	c.SwitchPhase(p, parts, switchTxn)
	return true
}

// SwitchPhase is the post-vote half of the combined protocol: travel to
// the switch, execute the hot sub-transaction, and multicast the commit
// decision to all participants. Callers that need work between the vote
// and the send (e.g. appending the switch intent to the WAL only once the
// outcome is decided) run Prepare themselves and then call SwitchPhase.
func (c *Coordinator) SwitchPhase(p *sim.Proc, parts []Participant, switchTxn func(sub *sim.Proc)) {
	// Travel to the switch and execute the hot sub-transaction there.
	p.Sleep(c.net.Latency().NodeToSwitch)
	switchTxn(p)
	// The switch multicasts results + decision to the participant nodes;
	// commit handlers run on arrival. The coordinator's own copy arrives
	// after the same switch-to-node latency, at which point all
	// (same-distance) participants have committed as well.
	c.multicastCommit(parts)
	p.Sleep(c.net.Latency().NodeToSwitch)
	c.Stats.Commits++
}

// Prepare runs only the voting round and reports whether every
// participant voted yes. Callers that interleave extra work between
// voting and the decision (e.g. Chiller's inner region) use this together
// with Finish.
func (c *Coordinator) Prepare(p *sim.Proc, parts []Participant) bool {
	return c.vote(p, parts)
}

// Finish runs only the decision round, committing or aborting every
// participant.
func (c *Coordinator) Finish(p *sim.Proc, parts []Participant, commit bool) {
	c.finish(p, parts, commit)
	if commit {
		c.Stats.Commits++
	} else {
		c.Stats.Aborts++
	}
}

// vote runs the prepare round over all participants in parallel.
func (c *Coordinator) vote(p *sim.Proc, parts []Participant) bool {
	ok := true
	c.fanout(p, parts, func(sub *sim.Proc, part Participant) {
		if !part.Prepare(sub) {
			ok = false
		}
	})
	return ok
}

// voteSubset is vote over a subset (used by the warm-transaction path).
func (c *Coordinator) voteSubset(p *sim.Proc, parts []Participant) bool {
	return c.vote(p, parts)
}

// finish runs the decision round (commit or abort) over all participants.
// Commit/Abort handlers are non-blocking by contract, so the whole round
// travels as callback events: the only goroutine wake-up is the
// coordinator resuming when the last acknowledgement lands.
func (c *Coordinator) finish(p *sim.Proc, parts []Participant, commit bool) {
	act := func(part Participant) func() {
		if commit {
			return part.Commit
		}
		return part.Abort
	}
	if len(parts) == 0 {
		return
	}
	if len(parts) == 1 {
		c.net.RPCEvent(p, c.self, parts[0].Node, act(parts[0]))
		return
	}
	env := p.Env()
	wg := env.NewWaitGroup(len(parts))
	for _, part := range parts {
		c.net.AsyncRPCEvent(c.self, part.Node, act(part), wg.Done)
	}
	p.Wait(wg)
}

// fanout dispatches the (possibly blocking) handler at every participant
// in parallel and waits. Request and reply legs travel as callback events;
// only the handler itself occupies a process at the participant.
func (c *Coordinator) fanout(p *sim.Proc, parts []Participant, handler func(*sim.Proc, Participant)) {
	if len(parts) == 0 {
		return
	}
	if len(parts) == 1 {
		part := parts[0]
		c.net.RPC(p, c.self, part.Node, func() { handler(p, part) })
		return
	}
	env := p.Env()
	wg := env.NewWaitGroup(len(parts))
	for _, part := range parts {
		part := part
		c.net.AsyncRPC("2pc-rpc", c.self, part.Node,
			func(sub *sim.Proc) { handler(sub, part) }, wg.Done)
	}
	p.Wait(wg)
}

// Continuation (CPS) forms of the coordinator entry points. They schedule
// the exact same events, at the same points of a run, as their process-form
// counterparts (the fan-out/finish rounds mirror fanout and finish case by
// case), so seeded schedules are identical whichever style drives a commit.

// CommitK is the continuation form of Commit: classic 2PC, with k receiving
// whether the transaction committed.
func (c *Coordinator) CommitK(parts []Participant, k func(bool)) {
	c.voteK(parts, func(votes bool) {
		c.finishK(parts, votes, func() {
			if votes {
				c.Stats.Commits++
			} else {
				c.Stats.Aborts++
			}
			k(votes)
		})
	})
}

// CommitDecidedK is CommitK with a durability hook: onDecide runs
// synchronously at the moment the outcome is known — after the last vote
// lands at the coordinator, before the decision round is scheduled. This
// is where presumed-abort logging writes the commit record: a coordinator
// crash before this point aborts the transaction (no record, participants
// time out and abort), a crash after it redoes from the record. onDecide
// must not block or schedule events; under that contract CommitDecidedK
// produces the exact event sequence of CommitK, so turning durability on
// cannot perturb a seeded run.
func (c *Coordinator) CommitDecidedK(parts []Participant, onDecide func(bool), k func(bool)) {
	c.voteK(parts, func(votes bool) {
		onDecide(votes)
		c.finishK(parts, votes, func() {
			if votes {
				c.Stats.Commits++
			} else {
				c.Stats.Aborts++
			}
			k(votes)
		})
	})
}

// CommitWithSwitchK is the continuation form of CommitWithSwitch. switchTxn
// runs "at" the switch and must call its done callback when the in-switch
// execution completes; k receives the commit outcome. Without remote
// participants the whole commit rides a pooled frame and allocates nothing
// at steady state.
func (c *Coordinator) CommitWithSwitchK(parts []Participant, switchTxn func(done func()), k func(bool)) {
	remote := remoteParts(parts, c.self)
	if len(remote) > 0 {
		c.voteK(remote, func(votes bool) {
			if !votes {
				c.finishK(parts, false, func() {
					c.Stats.Aborts++
					k(false)
				})
				return
			}
			c.switchPhase(parts, switchTxn, k)
		})
		return
	}
	c.switchPhase(parts, switchTxn, k)
}

// SwitchPhaseK is the continuation form of SwitchPhase: travel to the
// switch, run the hot sub-transaction there (switchTxn completes via done),
// multicast the decision, and run k when the coordinator's own multicast
// copy arrives.
func (c *Coordinator) SwitchPhaseK(parts []Participant, switchTxn func(done func()), k func()) {
	c.switchPhase(parts, switchTxn, func(bool) { k() })
}

// switchFrame is one in-flight Decision&Switch phase, pooled on the
// coordinator with its three steps cached as method values.
type switchFrame struct {
	c         *Coordinator
	parts     []Participant
	switchTxn func(done func())
	k         func(bool)

	arriveFn, executedFn, landedFn func()
}

func (c *Coordinator) switchPhase(parts []Participant, switchTxn func(done func()), k func(bool)) {
	var f *switchFrame
	if n := len(c.switchFree); n > 0 {
		f = c.switchFree[n-1]
		c.switchFree = c.switchFree[:n-1]
	} else {
		f = &switchFrame{c: c}
		f.arriveFn, f.executedFn, f.landedFn = f.arrive, f.executed, f.landed
	}
	f.parts, f.switchTxn, f.k = parts, switchTxn, k
	c.net.Env().After(c.net.Latency().NodeToSwitch, f.arriveFn)
}

// arrive runs the hot sub-transaction at the switch.
func (f *switchFrame) arrive() { f.switchTxn(f.executedFn) }

// executed multicasts the decision once the switch has executed; the
// coordinator's own copy lands one switch-to-node latency later.
func (f *switchFrame) executed() {
	f.c.multicastCommit(f.parts)
	f.c.net.Env().After(f.c.net.Latency().NodeToSwitch, f.landedFn)
}

func (f *switchFrame) landed() {
	c, k := f.c, f.k
	f.parts, f.switchTxn, f.k = nil, nil, nil
	c.switchFree = append(c.switchFree, f)
	c.Stats.Commits++
	k(true)
}

// PrepareK is the continuation form of Prepare: it runs only the voting
// round and hands k whether every participant voted yes.
func (c *Coordinator) PrepareK(parts []Participant, k func(bool)) {
	c.voteK(parts, k)
}

// FinishK is the continuation form of Finish: it runs only the decision
// round.
func (c *Coordinator) FinishK(parts []Participant, commit bool, k func()) {
	c.finishK(parts, commit, func() {
		if commit {
			c.Stats.Commits++
		} else {
			c.Stats.Aborts++
		}
		k()
	})
}

// voteK runs the prepare round over all participants in parallel, mirroring
// fanout's single-participant RPC / multi-participant async fan-out split.
func (c *Coordinator) voteK(parts []Participant, k func(bool)) {
	if len(parts) == 0 {
		k(true)
		return
	}
	ok := true
	if len(parts) == 1 {
		part := parts[0]
		c.net.RPCK(c.self, part.Node, func(done func()) {
			part.PrepareK(func(vote bool) {
				if !vote {
					ok = false
				}
				done()
			})
		}, func() { k(ok) })
		return
	}
	env := c.net.Env()
	wg := env.NewWaitGroup(len(parts))
	for _, part := range parts {
		part := part
		c.net.AsyncRPCK(c.self, part.Node, func(done func()) {
			part.PrepareK(func(vote bool) {
				if !vote {
					ok = false
				}
				done()
			})
		}, wg.Done)
	}
	wg.Subscribe(func() { k(ok) })
}

// finishK runs the decision round as callback events, mirroring finish.
func (c *Coordinator) finishK(parts []Participant, commit bool, k func()) {
	act := func(part Participant) func() {
		if commit {
			return part.Commit
		}
		return part.Abort
	}
	if len(parts) == 0 {
		k()
		return
	}
	if len(parts) == 1 {
		c.net.RPCEventK(c.self, parts[0].Node, act(parts[0]), k)
		return
	}
	env := c.net.Env()
	wg := env.NewWaitGroup(len(parts))
	for _, part := range parts {
		c.net.AsyncRPCEvent(c.self, part.Node, act(part), wg.Done)
	}
	wg.Subscribe(k)
}

// remoteParts filters out participants co-located with the coordinator.
func remoteParts(parts []Participant, self netsim.NodeID) []Participant {
	out := make([]Participant, 0, len(parts))
	for _, p := range parts {
		if p.Node != self {
			out = append(out, p)
		}
	}
	return out
}
