package netsim

import (
	"testing"

	"repro/internal/sim"
)

func lat() Latency {
	return Latency{NodeToSwitch: 1 * sim.Microsecond, NodeToNode: 2 * sim.Microsecond}
}

func TestRPCCostsFullRoundTrip(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 4, lat())
	var done sim.Time
	var handlerAt sim.Time
	e.Spawn("caller", func(p *sim.Proc) {
		n.RPC(p, 0, 1, func() { handlerAt = p.Now() })
		done = p.Now()
	})
	e.Run()
	if handlerAt != 2*sim.Microsecond {
		t.Fatalf("handler ran at %v, want 2µs (one-way)", handlerAt)
	}
	if done != 4*sim.Microsecond {
		t.Fatalf("RPC finished at %v, want 4µs (full RTT)", done)
	}
}

func TestRPCToSwitchIsHalfRTT(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 4, lat())
	var done sim.Time
	e.Spawn("caller", func(p *sim.Proc) {
		n.RPCToSwitch(p, 0, func() {})
		done = p.Now()
	})
	e.Run()
	if done != 2*sim.Microsecond {
		t.Fatalf("switch RPC = %v, want 2µs = half of node RTT", done)
	}
}

func TestLocalRPCIsFree(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 4, lat())
	var done sim.Time
	ran := false
	e.Spawn("caller", func(p *sim.Proc) {
		n.RPC(p, 2, 2, func() { ran = true })
		done = p.Now()
	})
	e.Run()
	if !ran || done != 0 {
		t.Fatalf("local RPC ran=%v at %v, want free", ran, done)
	}
}

func TestSendOneWay(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 2, lat())
	var at sim.Time = -1
	n.Send(0, 1, func() { at = e.Now() })
	e.Run()
	if at != 2*sim.Microsecond {
		t.Fatalf("message arrived at %v, want 2µs", at)
	}
}

func TestSwitchMulticastReachesAllNodesSimultaneously(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 5, lat())
	arrivals := map[NodeID]sim.Time{}
	n.SwitchMulticast(func(id NodeID) { arrivals[id] = e.Now() })
	e.Run()
	if len(arrivals) != 5 {
		t.Fatalf("multicast reached %d nodes, want 5", len(arrivals))
	}
	for id, at := range arrivals {
		if at != 1*sim.Microsecond {
			t.Fatalf("node %d got multicast at %v, want 1µs", id, at)
		}
	}
}

func TestFanoutIsParallel(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 4, lat())
	var done sim.Time
	e.Spawn("coord", func(p *sim.Proc) {
		n.Fanout(p, 0, []NodeID{1, 2, 3}, func(sub *sim.Proc, to NodeID) {
			sub.Sleep(5 * sim.Microsecond) // remote work
		})
		done = p.Now()
	})
	e.Run()
	// Parallel: 2µs out + 5µs work + 2µs back = 9µs, NOT 3*9.
	if done != 9*sim.Microsecond {
		t.Fatalf("fanout took %v, want 9µs (parallel)", done)
	}
}

func TestFanoutEmptyTargets(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 2, lat())
	ok := false
	e.Spawn("coord", func(p *sim.Proc) {
		n.Fanout(p, 0, nil, func(sub *sim.Proc, to NodeID) { t.Error("handler on empty fanout") })
		ok = true
	})
	e.Run()
	if !ok {
		t.Fatal("fanout with no targets never returned")
	}
}

func TestInvalidNodePanics(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 2, lat())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid node id")
		}
	}()
	n.Send(0, 7, func() {})
}

func TestHalfRTTInvariant(t *testing.T) {
	l := DefaultLatency()
	if l.NodeToNode != 2*l.NodeToSwitch {
		t.Fatalf("default latency violates the ½-RTT property: %v vs %v", l.NodeToNode, l.NodeToSwitch)
	}
}

func TestMsgsSentAccounting(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 3, lat())
	e.Spawn("p", func(p *sim.Proc) {
		n.RPC(p, 0, 1, func() {})          // 2 msgs
		n.RPCToSwitch(p, 0, func() {})     // 2 msgs
		n.Send(0, 1, func() {})            // 1 msg
		n.SwitchMulticast(func(NodeID) {}) // 3 msgs
	})
	e.Run()
	if n.MsgsSent != 8 {
		t.Fatalf("MsgsSent = %d, want 8", n.MsgsSent)
	}
}

// BenchmarkBatchedDelivery measures the coalesced one-way delivery path:
// many same-instant messages to one destination drain through a single
// scheduled event, so the per-message cost is one Batcher append rather
// than one event-heap push.
func BenchmarkBatchedDelivery(b *testing.B) {
	e := sim.NewEnv(1)
	n := New(e, 4, lat())
	noop := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(0, 1, noop)
	}
	e.Run()
	b.StopTimer()
	if n.MsgsSent != int64(b.N) {
		b.Fatalf("sent %d messages, want %d", n.MsgsSent, b.N)
	}
}

// TestBatchedDeliverySteadyStateZeroAlloc pins the steady-state batched
// send — append to an already-armed destination batch — at zero heap
// allocations. The closure is pre-built: a capturing literal inside the
// measured function would itself allocate and mask a regression.
func TestBatchedDeliverySteadyStateZeroAlloc(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 4, lat())
	noop := func() {}
	// Warm the batcher's backing slices past any growth.
	for i := 0; i < 4096; i++ {
		n.Send(0, 1, noop)
	}
	e.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		n.Send(0, 1, noop) // arms the batch event for this instant
		n.Send(0, 1, noop) // coalesced append
		n.Send(0, 1, noop)
		e.Run()
	}); avg != 0 {
		t.Fatalf("batched delivery allocates %.2f objects/op, want 0", avg)
	}
	if n.Coalesced == 0 {
		t.Fatal("no deliveries were coalesced; batching is not engaged")
	}
}

// TestTargetedMulticastSteadyStateZeroAlloc pins the targeted multicast
// — the switch-commit fan-out path — at zero heap allocations on a
// 256-node network. The target list and the indexed callback are
// pre-built, mirroring the coordinator's pooled multicast frame: each
// SwitchMulticastTo must travel through the per-node batchers without
// per-target closures or event-heap churn.
//
// A multi-target group arms one fresh batch per target (arming draws a
// sequence number, so coalescing a later group into an earlier target's
// batch would reorder deliveries — see Batcher's order-isomorphism
// contract); coalescing engages on repeated same-instant multicasts to
// the same target, the shape many single-participant hot-node commits
// produce. The test pins both shapes at zero allocations and asserts
// the second actually coalesces.
func TestTargetedMulticastSteadyStateZeroAlloc(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 256, lat())
	group := []NodeID{3, 17, 64, 200, 255}
	hot := []NodeID{128}
	noop := func(int) {}
	// Warm the batchers and the event heap past any growth.
	for i := 0; i < 4096; i++ {
		n.SwitchMulticastTo(group, noop)
		n.SwitchMulticastTo(hot, noop)
	}
	e.Run()
	before := n.Coalesced
	if avg := testing.AllocsPerRun(1000, func() {
		n.SwitchMulticastTo(group, noop) // arms one batch per target
		n.SwitchMulticastTo(hot, noop)   // arms node 128's batch
		n.SwitchMulticastTo(hot, noop)   // coalesced append
		n.SwitchMulticastTo(hot, noop)
		e.Run()
	}); avg != 0 {
		t.Fatalf("targeted multicast allocates %.2f objects/op, want 0", avg)
	}
	if n.Coalesced <= before {
		t.Fatal("no deliveries were coalesced; batching is not engaged")
	}
}

// TestBatchingPreservesDeliveryOrder drives a seeded random mix of sends
// (varying source, destination and same-instant bursts) through the
// network twice — coalescing on and off — and asserts the messages are
// delivered in exactly the same order at exactly the same virtual times.
// Batching may only merge scheduled events, never reorder deliveries.
func TestBatchingPreservesDeliveryOrder(t *testing.T) {
	type delivery struct {
		at sim.Time
		id int
	}
	run := func(coalesce bool) ([]delivery, int64) {
		e := sim.NewEnv(99)
		n := New(e, 4, lat())
		n.SetCoalescing(coalesce)
		var got []delivery
		rng := sim.NewRNG(7)
		id := 0
		for burst := 0; burst < 200; burst++ {
			k := 1 + rng.Intn(5) // same-instant burst to mixed destinations
			for i := 0; i < k; i++ {
				from := NodeID(rng.Intn(4))
				to := NodeID(rng.Intn(4))
				mid := id
				id++
				if rng.Intn(4) == 0 {
					n.SendToSwitch(from, func() {
						got = append(got, delivery{e.Now(), mid})
					})
				} else {
					n.Send(from, to, func() {
						got = append(got, delivery{e.Now(), mid})
					})
				}
			}
			e.Run() // drain this instant's deliveries before the next burst
		}
		return got, n.Coalesced
	}
	batched, coalesced := run(true)
	unbatched, zero := run(false)
	if coalesced == 0 {
		t.Fatal("batched run coalesced nothing; the test exercises no batching")
	}
	if zero != 0 {
		t.Fatalf("unbatched run reports %d coalesced deliveries", zero)
	}
	if len(batched) != len(unbatched) {
		t.Fatalf("delivered %d messages batched vs %d unbatched", len(batched), len(unbatched))
	}
	for i := range batched {
		if batched[i] != unbatched[i] {
			t.Fatalf("delivery %d diverges: batched (t=%d id=%d) vs unbatched (t=%d id=%d)",
				i, batched[i].at, batched[i].id, unbatched[i].at, unbatched[i].id)
		}
	}
}

// TestRPCToSwitchKZeroAlloc pins the node-to-switch round trip at zero heap
// allocations once its frame pool is primed, with several round trips in
// flight at once and a handler that completes asynchronously (as switch
// execution does). The handler and continuation are pre-built for the
// reason given on TestBatchedDeliverySteadyStateZeroAlloc.
func TestRPCToSwitchKZeroAlloc(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 4, lat())
	handled, landed := 0, 0
	var pending [4]func()
	finish := func() {
		for i, done := range pending[:handled] {
			pending[i] = nil
			done()
		}
		handled = 0
	}
	handler := func(done func()) {
		pending[handled] = done
		if handled++; handled == len(pending) {
			e.After(100, finish) // all four replies leave after in-switch time
		}
	}
	k := func() { landed++ }
	cycle := func() {
		for from := 0; from < len(pending); from++ {
			n.RPCToSwitchK(NodeID(from), handler, k)
		}
		e.Run()
	}
	cycle()
	start, sent := e.Now(), n.MsgsSent
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("RPCToSwitchK allocates %.2f objects per four round trips, want 0", avg)
	}
	cycles := int64(landed/len(pending) - 1)
	if got, want := e.Now()-start, sim.Time(cycles)*(2*lat().NodeToSwitch+100); got != want {
		t.Fatalf("%d cycles took %v, want %v", cycles, got, want)
	}
	if got, want := n.MsgsSent-sent, 2*int64(len(pending))*cycles; got != want {
		t.Fatalf("MsgsSent grew by %d, want %d", got, want)
	}
}
