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

	freeSwitchRPCs []*switchRPC // recycled RPCToSwitchK frames
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

// RPC performs a synchronous round trip from one node to another: the
// calling process sleeps the request latency, runs handler (which executes
// "at" the remote node and may itself block, e.g. on remote locks), then
// sleeps the response latency. Same-node RPCs skip the fabric entirely.
//
// Because the handler runs in the caller's goroutine, the caller is woken
// twice (arrival and reply). When the handler does not block, RPCEvent
// delivers the same round trip with one wake-up and the handler as a
// callback.
func (n *Network) RPC(p *sim.Proc, from, to NodeID, handler func()) {
	n.check(from)
	n.check(to)
	d := n.oneWay(from, to)
	if d > 0 {
		n.MsgsSent += 2
		p.Sleep(d)
		handler()
		p.Sleep(d)
		return
	}
	handler()
}

// RPCEvent performs a synchronous round trip whose handler is a
// non-blocking callback: the handler runs at the destination as a
// scheduler event (no goroutine, no context switch) and the reply resumes
// the parked caller directly. Virtual timing and event ordering are
// identical to RPC; the handler must not block. Same-node calls run the
// handler inline.
func (n *Network) RPCEvent(p *sim.Proc, from, to NodeID, handler func()) {
	n.check(from)
	n.check(to)
	d := n.oneWay(from, to)
	if d == 0 {
		handler()
		return
	}
	n.MsgsSent += 2
	env := n.env
	env.After(d, func() {
		handler()
		env.Resume(d, p)
	})
	p.Park()
}

// AsyncRPC dispatches handler "at" the destination without blocking the
// caller: the request travels as a callback event, a process is resumed at
// the destination only when the request arrives (handlers may block, e.g.
// on remote locks), and done runs back at the caller's side as a callback
// when the reply lands. Compared to spawning a courier process that sleeps
// both legs, this removes two goroutine wake-ups per message. Same-node
// dispatch skips the fabric: the handler process starts at the current
// instant and done runs as soon as it finishes.
func (n *Network) AsyncRPC(name string, from, to NodeID, handler func(sub *sim.Proc), done func()) {
	n.check(from)
	n.check(to)
	d := n.oneWay(from, to)
	env := n.env
	if d == 0 {
		env.Spawn(name, func(sub *sim.Proc) {
			handler(sub)
			done()
		})
		return
	}
	n.MsgsSent += 2
	env.SpawnAfter(d, name, func(sub *sim.Proc) {
		handler(sub)
		env.After(d, done)
	})
}

// AsyncRPCEvent is AsyncRPC for non-blocking handlers: both legs and the
// handler itself are callback events, so a full round trip costs zero
// goroutine switches. The handler executes at the destination after the
// one-way latency; done runs at the caller's side one further one-way
// latency later. Same-node dispatch runs handler and done at the current
// instant (after already-queued same-instant events).
func (n *Network) AsyncRPCEvent(from, to NodeID, handler func(), done func()) {
	n.check(from)
	n.check(to)
	d := n.oneWay(from, to)
	env := n.env
	if d == 0 {
		env.After(0, func() {
			handler()
			done()
		})
		return
	}
	n.MsgsSent += 2
	// The zero-delay egress hop models the packet leaving the local NIC at
	// the current instant; it also keeps event-sequence draws aligned with
	// the process-based delivery this replaces, preserving seeded schedules.
	env.After(0, func() {
		env.After(d, func() {
			handler()
			env.After(d, done)
		})
	})
}

// RPCToSwitch performs a synchronous round trip from a node to the switch:
// half the node-to-node one-way cost in each direction.
func (n *Network) RPCToSwitch(p *sim.Proc, from NodeID, handler func()) {
	n.check(from)
	n.MsgsSent += 2
	p.Sleep(n.lat.NodeToSwitch)
	handler()
	p.Sleep(n.lat.NodeToSwitch)
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

// Fanout runs handler(i) concurrently "at" each target node and blocks the
// caller until all have completed, modelling a parallel RPC fan-out such as
// the 2PC prepare round. Handlers may block (e.g. waiting on locks); the
// request and reply legs travel as callback events (see AsyncRPC), so each
// leg costs one handler wake-up instead of three.
func (n *Network) Fanout(p *sim.Proc, from NodeID, targets []NodeID, handler func(sub *sim.Proc, to NodeID)) {
	n.check(from)
	if len(targets) == 0 {
		return
	}
	wg := n.env.NewWaitGroup(len(targets))
	for _, to := range targets {
		to := to
		n.AsyncRPC(fmt.Sprintf("rpc-%d-%d", from, to), from, to,
			func(sub *sim.Proc) { handler(sub, to) }, wg.Done)
	}
	p.Wait(wg)
}

// Continuation (CPS) forms of the round-trip primitives. Each *K method
// schedules the exact same sequence of events, at the same points of the
// run, as the process-based primitive it mirrors, so a flow converted from
// one style to the other reproduces a seeded schedule bit-for-bit. The
// handler receives a done callback it must invoke (possibly after further
// waits) when the remote work completes; k runs back at the caller once the
// reply has landed.

// RPCK is the continuation form of RPC: handler runs "at" the destination
// after the request latency and may complete asynchronously via done; k runs
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
	env := n.env
	env.After(d, func() {
		handler(func() { env.After(d, k) })
	})
}

// RPCEventK is the continuation form of RPCEvent: a round trip whose handler
// is non-blocking, so no done callback is needed. Same-node calls run the
// handler and k inline.
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
	env := n.env
	env.After(d, func() {
		handler()
		env.After(d, k)
	})
}

// AsyncRPCK is the continuation form of AsyncRPC: the caller is never
// blocked, handler runs at the destination after the request latency (it may
// complete asynchronously via its done argument), and done runs back at the
// caller one response latency after the handler completes. The zero-delay
// egress hop on the remote path mirrors SpawnAfter's two-hop scheduling so
// event-sequence draws line up with the process form.
func (n *Network) AsyncRPCK(from, to NodeID, handler func(done func()), done func()) {
	n.check(from)
	n.check(to)
	d := n.oneWay(from, to)
	env := n.env
	if d == 0 {
		env.After(0, func() { handler(done) })
		return
	}
	n.MsgsSent += 2
	env.After(0, func() {
		env.After(d, func() {
			handler(func() { env.After(d, done) })
		})
	})
}

// RPCToSwitchK is the continuation form of RPCToSwitch: half the
// node-to-node one-way cost in each direction, with the switch-side handler
// completing via done (switch execution itself is a callback chain). The
// round trip rides a pooled frame, so it allocates nothing at steady state;
// done must be called exactly once.
func (n *Network) RPCToSwitchK(from NodeID, handler func(done func()), k func()) {
	n.check(from)
	n.MsgsSent += 2
	var f *switchRPC
	if l := len(n.freeSwitchRPCs); l > 0 {
		f = n.freeSwitchRPCs[l-1]
		n.freeSwitchRPCs = n.freeSwitchRPCs[:l-1]
	} else {
		f = &switchRPC{n: n}
		f.arriveFn, f.replyFn = f.arrive, f.reply
	}
	f.handler, f.k = handler, k
	n.env.After(n.lat.NodeToSwitch, f.arriveFn)
}

// switchRPC is one in-flight node-to-switch round trip, with its two legs
// cached as method values.
type switchRPC struct {
	n       *Network
	handler func(done func())
	k       func()

	arriveFn, replyFn func()
}

// arrive runs the handler at the switch; its done is the reply leg.
func (f *switchRPC) arrive() { f.handler(f.replyFn) }

// reply sends the response back and recycles the frame: once the reply leg
// is scheduled nothing refers to it anymore.
func (f *switchRPC) reply() {
	n, k := f.n, f.k
	f.handler, f.k = nil, nil
	n.freeSwitchRPCs = append(n.freeSwitchRPCs, f)
	n.env.After(n.lat.NodeToSwitch, k)
}

// FanoutK is the continuation form of Fanout: handler(to, done) is
// dispatched to every target (see AsyncRPCK) and k runs at the caller once
// every handler's reply has landed. With no targets k runs inline.
func (n *Network) FanoutK(from NodeID, targets []NodeID, handler func(to NodeID, done func()), k func()) {
	n.check(from)
	if len(targets) == 0 {
		k()
		return
	}
	wg := n.env.NewWaitGroup(len(targets))
	for _, to := range targets {
		to := to
		n.AsyncRPCK(from, to, func(done func()) { handler(to, done) }, wg.Done)
	}
	wg.Subscribe(k)
}
