// Package twopc implements the two-phase commit protocol of P4DB's host
// DBMS, including the paper's extension for warm transactions (Figure 10):
// after a successful voting phase, the coordinator sends the switch
// sub-transaction to the switch, which executes it and multicasts the
// commit decision (with the switch results) to all participants in the
// data plane — saving the dedicated decision round trip of classic 2PC.
package twopc

import "repro/internal/netsim"

// Participant is one node's involvement in a distributed transaction. The
// handlers run "at" the participant on the simulated timeline, as callback
// events. PrepareK may complete later (e.g. after flushing a log record);
// Commit and Abort apply already-validated state (release locks, install
// buffered writes) and must not wait, which lets the decision round and
// the switch multicast deliver them as plain events.
//
// The coordinator keeps the []Participant it is handed until the call's
// continuation runs, and never writes to it: callers may reuse one slice
// across transactions and share it between rounds in flight.
type Participant struct {
	Node netsim.NodeID
	// PrepareK validates and persists the participant's sub-transaction;
	// it must call done exactly once with the participant's vote (possibly
	// after scheduled waits such as a log flush).
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
	// roundFree and legFree recycle voting/decision rounds and their
	// per-participant vote adapters.
	roundFree []*round
	legFree   []*voteLeg

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

// CommitK runs classic 2PC over the participants: a parallel prepare round
// collecting votes, then a parallel commit (or abort) round; k receives
// whether the transaction committed. A participant co-located with the
// coordinator is handled without network hops by netsim.
func (c *Coordinator) CommitK(parts []Participant, k func(bool)) {
	c.CommitDecidedK(parts, nil, k)
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
	r := c.takeRound(roundCommit, parts)
	r.onDecide, r.k = onDecide, k
	r.vote(parts)
}

// CommitWithSwitchK runs the combined Decision&Switch phase for warm
// transactions. After all remote participants vote yes, the coordinator
// sends the switch sub-transaction (half an RTT away); switchTxn runs "at"
// the switch and must call its done callback when the in-switch execution
// completes. The switch then multicasts the decision: every participant's
// Commit handler runs when the multicast arrives, without further round
// trips, and k(true) runs at the same instant (the coordinator is one of
// the multicast targets). On a no vote the switch transaction is never
// sent and a classic abort round runs instead, ending in k(false).
//
// When the warm transaction has no remote participants, the voting phase
// is skipped entirely (Section 6.2).
func (c *Coordinator) CommitWithSwitchK(parts []Participant, switchTxn func(done func()), k func(bool)) {
	var r *round
	for _, p := range parts {
		if p.Node != c.self {
			if r == nil {
				r = c.takeRound(roundSwitch, parts)
			}
			r.remote = append(r.remote, p)
		}
	}
	if r == nil {
		c.switchPhase(parts, switchTxn, k)
		return
	}
	r.switchTxn, r.k = switchTxn, k
	r.vote(r.remote)
}

// SwitchPhaseK is the post-vote half of the combined protocol: travel to
// the switch, run the hot sub-transaction there (switchTxn completes via
// done), multicast the decision, and run k when the coordinator's own
// multicast copy arrives. Callers that need work between the vote and the
// send (e.g. appending the switch intent to the WAL only once the outcome
// is decided) run PrepareK themselves and then call SwitchPhaseK.
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

// PrepareK runs only the voting round and hands k whether every
// participant voted yes. Callers that interleave extra work between voting
// and the decision (e.g. Chiller's inner region) use this together with
// FinishK.
func (c *Coordinator) PrepareK(parts []Participant, k func(bool)) {
	r := c.takeRound(roundPrepare, parts)
	r.k = k
	r.vote(parts)
}

// FinishK runs only the decision round, committing or aborting every
// participant.
func (c *Coordinator) FinishK(parts []Participant, commit bool, k func()) {
	r := c.takeRound(roundFinish, parts)
	r.ok, r.kDone = commit, k
	r.finish()
}

// roundKind selects what a round does around its vote and decision legs.
type roundKind uint8

const (
	roundCommit  roundKind = iota // vote, onDecide, decision round, k(ok)
	roundPrepare                  // vote, k(ok)
	roundFinish                   // decision round, kDone()
	roundSwitch                   // vote the remote parts; yes: switch phase, no: abort round, k(false)
)

// round is one in-flight voting and/or decision round, pooled on the
// coordinator with its steps cached as method values: driving a commit
// allocates nothing once the free lists are warm. One participant is a
// plain round trip; several go out as parallel async round trips whose
// last reply schedules one same-instant event to continue the round.
type round struct {
	c         *Coordinator
	kind      roundKind
	parts     []Participant // the caller's, by reference
	remote    []Participant // roundSwitch: the voters, frame-owned scratch
	ok        bool          // the votes so far; the decision once voted
	remaining int           // legs of the current parallel round still out
	next      func()        // what follows that round: votedFn or finishedFn
	onDecide  func(bool)
	switchTxn func(done func())
	k         func(bool)
	kDone     func()

	votedFn, finishedFn, legDoneFn func()
}

func (c *Coordinator) takeRound(kind roundKind, parts []Participant) *round {
	var r *round
	if n := len(c.roundFree); n > 0 {
		r = c.roundFree[n-1]
		c.roundFree = c.roundFree[:n-1]
	} else {
		r = &round{c: c}
		r.votedFn, r.finishedFn, r.legDoneFn = r.voted, r.finished, r.legDone
	}
	r.kind, r.parts, r.ok = kind, parts, true
	return r
}

// release recycles the round; callers copy what they still need first.
func (r *round) release() {
	clear(r.remote)
	r.parts, r.remote = nil, r.remote[:0]
	r.onDecide, r.switchTxn, r.k, r.kDone = nil, nil, nil, nil
	r.c.roundFree = append(r.c.roundFree, r)
}

// voteLeg adapts one participant's PrepareK to a netsim handler and
// records its vote on the round. It recycles itself when the vote is in.
type voteLeg struct {
	r        *round
	prepareK func(done func(bool))
	done     func() // the reply leg of the round trip in flight

	handlerFn func(done func())
	votedFn   func(bool)
}

func (r *round) leg(p *Participant) *voteLeg {
	c := r.c
	var l *voteLeg
	if n := len(c.legFree); n > 0 {
		l = c.legFree[n-1]
		c.legFree = c.legFree[:n-1]
	} else {
		l = &voteLeg{}
		l.handlerFn, l.votedFn = l.handler, l.voted
	}
	l.r, l.prepareK = r, p.PrepareK
	return l
}

func (l *voteLeg) handler(done func()) {
	l.done = done
	l.prepareK(l.votedFn)
}

func (l *voteLeg) voted(vote bool) {
	r, done := l.r, l.done
	if !vote {
		r.ok = false
	}
	l.r, l.prepareK, l.done = nil, nil, nil
	r.c.legFree = append(r.c.legFree, l)
	done()
}

// vote runs the prepare round over voters in parallel and continues in
// voted once every reply has landed (inline when there is no one to ask).
func (r *round) vote(voters []Participant) {
	c := r.c
	switch len(voters) {
	case 0:
		r.voted()
	case 1:
		c.net.RPCK(c.self, voters[0].Node, r.leg(&voters[0]).handlerFn, r.votedFn)
	default:
		r.remaining, r.next = len(voters), r.votedFn
		for i := range voters {
			c.net.AsyncRPCK(c.self, voters[i].Node, r.leg(&voters[i]).handlerFn, r.legDoneFn)
		}
	}
}

// legDone counts one reply of a parallel round in; the last one schedules
// the round's next step as a same-instant event.
func (r *round) legDone() {
	if r.remaining--; r.remaining > 0 {
		return
	}
	r.c.net.Env().After(0, r.next)
}

// voted runs at the coordinator once the outcome of the vote is known.
func (r *round) voted() {
	switch r.kind {
	case roundPrepare:
		k, ok := r.k, r.ok
		r.release()
		k(ok)
	case roundSwitch:
		if !r.ok {
			r.finish()
			return
		}
		c, parts, switchTxn, k := r.c, r.parts, r.switchTxn, r.k
		r.release()
		c.switchPhase(parts, switchTxn, k)
	default:
		if r.onDecide != nil {
			r.onDecide(r.ok)
		}
		r.finish()
	}
}

// finish runs the decision round (commit or abort, per r.ok) over all
// participants and continues in finished. Commit/Abort handlers do not
// wait, so the whole round travels as plain events.
func (r *round) finish() {
	c := r.c
	switch len(r.parts) {
	case 0:
		r.finished()
	case 1:
		c.net.RPCEventK(c.self, r.parts[0].Node, r.act(&r.parts[0]), r.finishedFn)
	default:
		r.remaining, r.next = len(r.parts), r.finishedFn
		for i := range r.parts {
			c.net.AsyncRPCEvent(c.self, r.parts[i].Node, r.act(&r.parts[i]), r.legDoneFn)
		}
	}
}

func (r *round) act(p *Participant) func() {
	if r.ok {
		return p.Commit
	}
	return p.Abort
}

// finished runs once every acknowledgement of the decision round landed.
func (r *round) finished() {
	ok, k, kDone := r.ok, r.k, r.kDone
	if ok {
		r.c.Stats.Commits++
	} else {
		r.c.Stats.Aborts++
	}
	r.release()
	if kDone != nil {
		kDone()
	} else {
		k(ok)
	}
}
