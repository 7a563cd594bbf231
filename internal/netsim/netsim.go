// Package netsim models the rack network of the P4DB deployment: N
// database nodes all attached to one top-of-rack programmable switch.
//
// The key property from the paper is that the switch sits on the path
// between any two nodes, so a node reaches the switch in half the one-way
// latency it needs to reach another node. All latencies are virtual times
// on the discrete-event simulator's clock.
package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// NodeID identifies a database node (0-based). The switch is not a NodeID;
// it is addressed by the dedicated *ToSwitch helpers.
type NodeID int

// Latency describes the one-way delays of the rack fabric. A node-to-node
// message traverses two links (node→switch→node); a node-to-switch message
// traverses one, which is the paper's "½ RTT" advantage for in-switch
// transactions.
type Latency struct {
	// NodeToSwitch is the one-way delay from a node's NIC to the switch
	// pipeline ingress (includes NIC + DPDK processing).
	NodeToSwitch sim.Time
	// NodeToNode is the one-way delay between two distinct nodes. For a
	// single-switch rack this is 2*NodeToSwitch plus switch forwarding.
	NodeToNode sim.Time
}

// DefaultLatency mirrors the paper's 10G/DPDK testbed at a small scale:
// reaching the switch costs half of reaching a peer node.
func DefaultLatency() Latency {
	return Latency{
		NodeToSwitch: 4 * sim.Microsecond,
		NodeToNode:   8 * sim.Microsecond,
	}
}

// Network is the rack fabric: the set of nodes plus latency parameters.
type Network struct {
	env      *sim.Env
	numNodes int
	lat      Latency

	// MsgsSent counts one-way messages for diagnostics. Every logical
	// message is counted whether or not its delivery was coalesced.
	MsgsSent int64
	// Coalesced counts one-way deliveries that shared a scheduled event
	// with an earlier same-instant message to the same destination.
	Coalesced int64

	// coalesce enables batched delivery: one-way messages to the same
	// destination arriving at the same instant drain through a single
	// scheduled event (sim.Batcher). Execution order is provably identical
	// either way; only the raw executed-event count differs.
	coalesce bool
	nodeB    []*sim.Batcher // one per destination node
	swB      *sim.Batcher   // the switch control point

	freeRPCs []*rpcFrame // recycled round-trip frames
}

// New creates a network of numNodes nodes attached to one switch.
func New(env *sim.Env, numNodes int, lat Latency) *Network {
	if numNodes <= 0 {
		panic("netsim: numNodes must be positive")
	}
	n := &Network{env: env, numNodes: numNodes, lat: lat, coalesce: true}
	n.nodeB = make([]*sim.Batcher, numNodes)
	for i := range n.nodeB {
		n.nodeB[i] = sim.NewBatcher(env)
	}
	n.swB = sim.NewBatcher(env)
	return n
}

// SetCoalescing toggles batched one-way delivery (on by default). The
// determinism tests run seeded workloads both ways and assert identical
// results.
func (n *Network) SetCoalescing(on bool) { n.coalesce = on }

// NumNodes returns the number of database nodes.
func (n *Network) NumNodes() int { return n.numNodes }

// Env returns the simulation environment the network schedules on.
func (n *Network) Env() *sim.Env { return n.env }

// Latency returns the fabric's latency parameters.
func (n *Network) Latency() Latency { return n.lat }

// check panics on an invalid node id; topology bugs should fail loudly.
func (n *Network) check(id NodeID) {
	if id < 0 || int(id) >= n.numNodes {
		panic(fmt.Sprintf("netsim: invalid node id %d (nodes=%d)", id, n.numNodes))
	}
}

// oneWay returns the one-way latency between two nodes (zero if the same
// node: loopback is modelled as free next to µs-scale fabric latencies).
func (n *Network) oneWay(from, to NodeID) sim.Time {
	if from == to {
		return 0
	}
	return n.lat.NodeToNode
}

// Send delivers a one-way message: fn runs at the destination after the
// fabric latency. The sender does not wait. Same-instant sends to one
// destination coalesce into a single delivery event when batching is on.
func (n *Network) Send(from, to NodeID, fn func()) {
	n.check(from)
	n.check(to)
	n.MsgsSent++
	if n.coalesce {
		if n.nodeB[to].Do(n.oneWay(from, to), fn) {
			n.Coalesced++
		}
		return
	}
	n.env.After(n.oneWay(from, to), fn)
}

// SendToSwitch delivers a one-way message from a node to the switch
// control point (used e.g. for asynchronous lock releases to an in-switch
// lock manager). The sender does not wait.
func (n *Network) SendToSwitch(from NodeID, fn func()) {
	n.check(from)
	n.MsgsSent++
	if n.coalesce {
		if n.swB.Do(n.lat.NodeToSwitch, fn) {
			n.Coalesced++
		}
		return
	}
	n.env.After(n.lat.NodeToSwitch, fn)
}

// SwitchMulticast delivers fn(node) at every node after the switch-to-node
// latency, modelling the switch's hardware multicast used for the combined
// Decision&Switch phase of warm-transaction 2PC (Figure 10). All replicas
// arrive at the same virtual instant because the switch replicates in the
// data plane.
func (n *Network) SwitchMulticast(fn func(NodeID)) {
	for i := 0; i < n.numNodes; i++ {
		id := NodeID(i)
		n.MsgsSent++
		if n.coalesce {
			if n.nodeB[id].Do(n.lat.NodeToSwitch, func() { fn(id) }) {
				n.Coalesced++
			}
			continue
		}
		n.env.After(n.lat.NodeToSwitch, func() { fn(id) })
	}
}

// SwitchMulticastTo is the targeted form of SwitchMulticast: fn(node) is
// delivered only at the listed nodes — the multicast group programmed for
// this transaction — after the switch-to-node latency. Replicas still share
// one virtual arrival instant; nodes outside the group receive nothing, so
// the cost of a switch commit scales with the transaction's participant
// count, not the cluster size. The callback takes the node id as a plain
// int so a caller's pooled method value can travel through the per-node
// batchers without a per-destination closure allocation. nodes must be
// valid ids; duplicates would deliver twice.
func (n *Network) SwitchMulticastTo(nodes []NodeID, fn func(id int)) {
	for _, id := range nodes {
		n.check(id)
		n.MsgsSent++
		if n.coalesce {
			if n.nodeB[id].DoIndexed(n.lat.NodeToSwitch, fn, int(id)) {
				n.Coalesced++
			}
			continue
		}
		id := id
		n.env.After(n.lat.NodeToSwitch, func() { fn(int(id)) })
	}
}

// Round trips. Every form rides one pooled rpcFrame, so a round trip
// allocates nothing at steady state, and schedules the same hops: the
// request leg After(d), the handler "at" the destination, the reply leg
// After(d, k). The Async forms never run anything inline at the caller:
// they start with a zero-delay egress hop (the packet leaving the local NIC
// at the current instant), which also keeps event-sequence draws where the
// retired courier processes had them. Same-node calls skip the fabric.
//
// A handler that takes a done callback may complete asynchronously (after
// lock waits, log flushes, switch execution) but must call done exactly
// once: done sends the reply and recycles the frame, so a second call
// would complete some later, unrelated round trip.

// RPCK performs a round trip from one node to another: handler runs "at"
// the destination after the request latency and completes via done; k runs
// at the caller after the response latency. Same-node calls run handler —
// and then k — inline.
func (n *Network) RPCK(from, to NodeID, handler func(done func()), k func()) {
	n.check(from)
	n.check(to)
	d := n.oneWay(from, to)
	if d == 0 {
		handler(k)
		return
	}
	n.MsgsSent += 2
	f := n.frame(d, handler, nil, k)
	n.env.After(d, f.arriveFn)
}

// RPCEventK is RPCK for a non-blocking handler, so no done callback is
// needed. Same-node calls run the handler and k inline.
func (n *Network) RPCEventK(from, to NodeID, handler func(), k func()) {
	n.check(from)
	n.check(to)
	d := n.oneWay(from, to)
	if d == 0 {
		handler()
		k()
		return
	}
	n.MsgsSent += 2
	f := n.frame(d, nil, handler, k)
	n.env.After(d, f.arriveFn)
}

// AsyncRPCK dispatches handler "at" the destination without running
// anything inline: egress hop, request latency, handler (completing via its
// done argument), then done back at the caller one response latency later.
// Same-node dispatch runs the handler at the current instant, after
// already-queued same-instant events, and hands it done directly.
func (n *Network) AsyncRPCK(from, to NodeID, handler func(done func()), done func()) {
	n.async(from, to, handler, nil, done)
}

// AsyncRPCEvent is AsyncRPCK for a non-blocking handler. Same-node
// dispatch runs handler and done back to back at the current instant.
func (n *Network) AsyncRPCEvent(from, to NodeID, handler func(), done func()) {
	n.async(from, to, nil, handler, done)
}

func (n *Network) async(from, to NodeID, handler func(done func()), plain func(), done func()) {
	n.check(from)
	n.check(to)
	d := n.oneWay(from, to)
	f := n.frame(d, handler, plain, done)
	if d == 0 {
		n.env.After(0, f.arriveFn)
		return
	}
	n.MsgsSent += 2
	n.env.After(0, f.egressFn)
}

// RPCToSwitchK performs a round trip from a node to the switch: half the
// node-to-node one-way cost in each direction, with the switch-side handler
// completing via done (switch execution itself is a callback chain).
func (n *Network) RPCToSwitchK(from NodeID, handler func(done func()), k func()) {
	n.check(from)
	n.MsgsSent += 2
	f := n.frame(n.lat.NodeToSwitch, handler, nil, k)
	n.env.After(f.d, f.arriveFn)
}

// rpcFrame is one in-flight round trip: the one-way delay, the handler in
// whichever form the caller gave it, the caller's continuation, and the
// three hops cached as method values.
type rpcFrame struct {
	n       *Network
	d       sim.Time
	handler func(done func())
	plain   func()
	k       func()

	egressFn, arriveFn, replyFn func()
}

// frame takes a frame off the free list (or builds one) and arms it.
func (n *Network) frame(d sim.Time, handler func(done func()), plain func(), k func()) *rpcFrame {
	var f *rpcFrame
	if l := len(n.freeRPCs); l > 0 {
		f = n.freeRPCs[l-1]
		n.freeRPCs = n.freeRPCs[:l-1]
	} else {
		f = &rpcFrame{n: n}
		f.egressFn, f.arriveFn, f.replyFn = f.egress, f.arrive, f.reply
	}
	f.d, f.handler, f.plain, f.k = d, handler, plain, k
	return f
}

// release recycles the frame and returns what its last hop still needs.
// Nothing refers to a frame once that hop is scheduled.
func (f *rpcFrame) release() (n *Network, d sim.Time, k func()) {
	n, d, k = f.n, f.d, f.k
	f.handler, f.plain, f.k = nil, nil, nil
	n.freeRPCs = append(n.freeRPCs, f)
	return n, d, k
}

// egress is the packet leaving the caller's NIC.
func (f *rpcFrame) egress() { f.n.env.After(f.d, f.arriveFn) }

// arrive runs the handler at the destination. A plain handler is followed
// by the reply leg at once; a completing one is handed the reply leg as
// its done (or, on a same-node dispatch, the caller's continuation itself).
func (f *rpcFrame) arrive() {
	switch {
	case f.plain != nil:
		plain := f.plain
		n, d, k := f.release()
		plain()
		if d == 0 {
			k()
		} else {
			n.env.After(d, k)
		}
	case f.d == 0:
		handler := f.handler
		_, _, k := f.release()
		handler(k)
	default:
		f.handler(f.replyFn)
	}
}

// reply is a completing handler's done: it sends the response back.
func (f *rpcFrame) reply() {
	n, d, k := f.release()
	n.env.After(d, k)
}
