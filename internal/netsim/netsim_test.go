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
	var done, handlerAt sim.Time
	n.RPCK(0, 1, func(reply func()) {
		handlerAt = e.Now()
		reply()
	}, func() { done = e.Now() })
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
	n.RPCToSwitchK(0, func(reply func()) { reply() }, func() { done = e.Now() })
	e.Run()
	if done != 2*sim.Microsecond {
		t.Fatalf("switch RPC = %v, want 2µs = half of node RTT", done)
	}
}

func TestLocalRPCIsFree(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 4, lat())
	ran, finished := false, false
	n.RPCK(2, 2, func(reply func()) {
		ran = true
		reply()
	}, func() { finished = true })
	// Same-node calls complete inline, before any event runs.
	if !ran || !finished || n.MsgsSent != 0 {
		t.Fatalf("local RPC ran=%v finished=%v msgs=%d, want inline and free", ran, finished, n.MsgsSent)
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

func TestAsyncRPCsRunInParallel(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 4, lat())
	var landed []sim.Time
	for to := NodeID(1); to <= 3; to++ {
		n.AsyncRPCK(0, to, func(reply func()) {
			e.After(5*sim.Microsecond, reply) // remote work
		}, func() { landed = append(landed, e.Now()) })
	}
	if len(landed) != 0 {
		t.Fatal("an async round trip completed inline")
	}
	e.Run()
	// Parallel: 2µs out + 5µs work + 2µs back = 9µs each, NOT 3*9.
	if len(landed) != 3 || landed[0] != 9*sim.Microsecond || landed[2] != 9*sim.Microsecond {
		t.Fatalf("replies landed at %v, want three at 9µs", landed)
	}
}

func TestAsyncRPCSameNodeSkipsFabric(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 2, lat())
	var order []string
	n.AsyncRPCK(1, 1, func(reply func()) {
		order = append(order, "handler")
		reply()
	}, func() { order = append(order, "done") })
	n.AsyncRPCEvent(1, 1, func() { order = append(order, "plain") }, func() { order = append(order, "done2") })
	order = append(order, "caller")
	e.Run()
	want := []string{"caller", "handler", "done", "plain", "done2"}
	if len(order) != len(want) || e.Now() != 0 || n.MsgsSent != 0 {
		t.Fatalf("order=%v now=%v msgs=%d", order, e.Now(), n.MsgsSent)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
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
	reply := func(done func()) { done() }
	noop := func() {}
	n.RPCK(0, 1, reply, noop)          // 2 msgs
	n.RPCToSwitchK(0, reply, noop)     // 2 msgs
	n.Send(0, 1, noop)                 // 1 msg
	n.SwitchMulticast(func(NodeID) {}) // 3 msgs
	n.AsyncRPCK(1, 2, reply, noop)     // 2 msgs
	n.AsyncRPCEvent(2, 0, noop, noop)  // 2 msgs
	n.RPCEventK(2, 1, noop, noop)      // 2 msgs
	e.Run()
	if n.MsgsSent != 14 {
		t.Fatalf("MsgsSent = %d, want 14", n.MsgsSent)
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

// pinRoundTrips pins one round-trip form at zero heap allocations once the
// frame pool is primed, with four round trips in flight at once and a
// handler that completes asynchronously (as lock waits, log flushes and
// switch execution do). oneWay is the form's latency per leg. The handler
// and continuation are pre-built for the reason given on
// TestBatchedDeliverySteadyStateZeroAlloc.
func pinRoundTrips(t *testing.T, oneWay sim.Time, issue func(n *Network, from NodeID, handler func(done func()), k func())) {
	t.Helper()
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
			e.After(100, finish) // all four replies leave after the remote work
		}
	}
	k := func() { landed++ }
	cycle := func() {
		for from := 0; from < len(pending); from++ {
			issue(n, NodeID(from), handler, k)
		}
		e.Run()
	}
	cycle()
	start, sent := e.Now(), n.MsgsSent
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("four round trips allocate %.2f objects, want 0", avg)
	}
	cycles := int64(landed/len(pending) - 1)
	if got, want := e.Now()-start, sim.Time(cycles)*(2*oneWay+100); got != want {
		t.Fatalf("%d cycles took %v, want %v", cycles, got, want)
	}
	if got, want := n.MsgsSent-sent, 2*int64(len(pending))*cycles; got != want {
		t.Fatalf("MsgsSent grew by %d, want %d", got, want)
	}
	if got := len(n.freeRPCs); got != len(pending) {
		t.Fatalf("%d frames on the free list, want %d", got, len(pending))
	}
}

func TestRPCKZeroAlloc(t *testing.T) {
	pinRoundTrips(t, lat().NodeToNode, func(n *Network, from NodeID, handler func(done func()), k func()) {
		n.RPCK(from, (from+1)%4, handler, k)
	})
}

func TestAsyncRPCKZeroAlloc(t *testing.T) {
	pinRoundTrips(t, lat().NodeToNode, func(n *Network, from NodeID, handler func(done func()), k func()) {
		n.AsyncRPCK(from, (from+1)%4, handler, k)
	})
}

func TestRPCToSwitchKZeroAlloc(t *testing.T) {
	pinRoundTrips(t, lat().NodeToSwitch, func(n *Network, from NodeID, handler func(done func()), k func()) {
		n.RPCToSwitchK(from, handler, k)
	})
}

// TestAsyncRPCEventZeroAlloc pins the plain-handler round trips — the
// shape of a 2PC decision round — remote and same-node, at zero heap
// allocations.
func TestAsyncRPCEventZeroAlloc(t *testing.T) {
	e := sim.NewEnv(1)
	n := New(e, 4, lat())
	handled, landed := 0, 0
	handler := func() { handled++ }
	k := func() { landed++ }
	cycle := func() {
		n.AsyncRPCEvent(0, 1, handler, k)
		n.AsyncRPCEvent(0, 2, handler, k)
		n.AsyncRPCEvent(0, 0, handler, k)
		n.RPCEventK(3, 1, handler, k)
		e.Run()
	}
	cycle()
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("plain-handler round trips allocate %.2f objects per cycle, want 0", avg)
	}
	if handled != landed || handled%4 != 0 {
		t.Fatalf("%d handlers ran, %d replies landed", handled, landed)
	}
}

// The closure-built round trips the pooled frame replaced, kept as the
// reference the pooled forms must be indistinguishable from: same hops,
// same delays, same order of After calls.

func refRPCK(e *sim.Env, d sim.Time, handler func(done func()), k func()) {
	e.After(d, func() {
		handler(func() { e.After(d, k) })
	})
}

func refRPCEventK(e *sim.Env, d sim.Time, handler func(), k func()) {
	e.After(d, func() {
		handler()
		e.After(d, k)
	})
}

func refAsyncRPCK(e *sim.Env, d sim.Time, handler func(done func()), done func()) {
	if d == 0 {
		e.After(0, func() { handler(done) })
		return
	}
	e.After(0, func() {
		e.After(d, func() {
			handler(func() { e.After(d, done) })
		})
	})
}

func refAsyncRPCEvent(e *sim.Env, d sim.Time, handler func(), done func()) {
	if d == 0 {
		e.After(0, func() {
			handler()
			done()
		})
		return
	}
	e.After(0, func() {
		e.After(d, func() {
			handler()
			e.After(d, done)
		})
	})
}

// TestPooledRoundTripsMatchClosureReference keeps 64 round trips of every
// form in flight at once, issued 300 ns apart with remote work of 0 to
// 5 µs, so frames are recycled and re-armed while their siblings are
// mid-flight. The order and the instants at which handlers run and replies
// land must equal the closure-built reference's: a frame recycled early
// would deliver some call's reply to another call's continuation.
func TestPooledRoundTripsMatchClosureReference(t *testing.T) {
	type step struct {
		call int
		what string
		at   sim.Time
	}
	run := func(pooled bool) ([]step, int64) {
		e := sim.NewEnv(5)
		n := New(e, 4, lat())
		rng := sim.NewRNG(11)
		var trace []step
		for call := 0; call < 64; call++ {
			call := call
			from, to := NodeID(rng.Intn(4)), NodeID(rng.Intn(4))
			work := sim.Time(rng.Intn(6)) * sim.Microsecond
			form := rng.Intn(5)
			d := n.oneWay(from, to)
			if form == 4 {
				d = lat().NodeToSwitch
			}
			mark := func(what string) { trace = append(trace, step{call, what, e.Now()}) }
			handler := func(done func()) {
				mark("handler")
				e.After(work, done) // work 0 still takes a scheduled event
			}
			plain := func() { mark("handler") }
			k := func() { mark("reply") }
			e.After(sim.Time(call)*300, func() {
				mark("issue")
				switch {
				case form == 0 && pooled:
					n.RPCK(from, to, handler, k)
				case form == 0 && d == 0:
					handler(k)
				case form == 0:
					refRPCK(e, d, handler, k)
				case form == 1 && pooled:
					n.RPCEventK(from, to, plain, k)
				case form == 1 && d == 0:
					plain()
					k()
				case form == 1:
					refRPCEventK(e, d, plain, k)
				case form == 2 && pooled:
					n.AsyncRPCK(from, to, handler, k)
				case form == 2:
					refAsyncRPCK(e, d, handler, k)
				case form == 3 && pooled:
					n.AsyncRPCEvent(from, to, plain, k)
				case form == 3:
					refAsyncRPCEvent(e, d, plain, k)
				case pooled:
					n.RPCToSwitchK(from, handler, k)
				default:
					refRPCK(e, d, handler, k)
				}
			})
		}
		e.Run()
		if pooled && len(n.freeRPCs) >= 64 {
			t.Fatalf("%d frames built for 64 staggered calls: none was reused mid-run", len(n.freeRPCs))
		}
		return trace, e.Events()
	}
	got, gotEvents := run(true)
	want, wantEvents := run(false)
	if len(got) != len(want) || len(got) != 3*64 {
		t.Fatalf("pooled run traced %d steps, reference %d, want %d", len(got), len(want), 3*64)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: pooled %+v, reference %+v", i, got[i], want[i])
		}
	}
	if gotEvents != wantEvents {
		t.Fatalf("pooled run executed %d events, reference %d", gotEvents, wantEvents)
	}
}
