package twopc

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func testNet(e *sim.Env, n int) *netsim.Network {
	return netsim.New(e, n, netsim.Latency{
		NodeToSwitch: 1 * sim.Microsecond,
		NodeToNode:   2 * sim.Microsecond,
	})
}

type trace struct {
	prepares, commits, aborts int
}

func part(node netsim.NodeID, vote bool, tr *trace) Participant {
	return Participant{
		Node: node,
		PrepareK: func(done func(bool)) {
			tr.prepares++
			done(vote)
		},
		Commit: func() { tr.commits++ },
		Abort:  func() { tr.aborts++ },
	}
}

// run drives one coordinator call to completion: start launches it with
// the continuation to hand the coordinator, and run returns the outcome
// and the virtual time at which that continuation ran.
func run(t *testing.T, e *sim.Env, start func(k func(bool))) (ok bool, at sim.Time) {
	t.Helper()
	finished := false
	start(func(v bool) { ok, at, finished = v, e.Now(), true })
	e.Run()
	if !finished {
		t.Fatal("the coordinator never ran its continuation")
	}
	return ok, at
}

func TestClassic2PCCommits(t *testing.T) {
	e := sim.NewEnv(1)
	c := NewCoordinator(testNet(e, 4), 0)
	var tr trace
	parts := []Participant{part(1, true, &tr), part(2, true, &tr), part(3, true, &tr)}
	ok, _ := run(t, e, func(k func(bool)) { c.CommitK(parts, k) })
	if !ok || tr.prepares != 3 || tr.commits != 3 || tr.aborts != 0 {
		t.Fatalf("ok=%v trace=%+v", ok, tr)
	}
	if c.Stats.Commits != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestClassic2PCAbortsOnNoVote(t *testing.T) {
	e := sim.NewEnv(1)
	c := NewCoordinator(testNet(e, 4), 0)
	var tr trace
	parts := []Participant{part(1, true, &tr), part(2, false, &tr)}
	decided := -1
	ok, _ := run(t, e, func(k func(bool)) {
		c.CommitDecidedK(parts, func(commit bool) {
			// The hook runs once, after the votes and before any decision
			// handler.
			if decided != -1 || tr.prepares != 2 || tr.aborts != 0 {
				t.Errorf("onDecide at the wrong point: decided=%d trace=%+v", decided, tr)
			}
			decided = 0
			if commit {
				decided = 1
			}
		}, k)
	})
	if ok || decided != 0 || tr.aborts != 2 || tr.commits != 0 || c.Stats.Aborts != 1 {
		t.Fatalf("ok=%v decided=%d trace=%+v stats=%+v", ok, decided, tr, c.Stats)
	}
}

func TestClassic2PCTakesTwoRounds(t *testing.T) {
	e := sim.NewEnv(1)
	c := NewCoordinator(testNet(e, 3), 0)
	var tr trace
	parts := []Participant{part(1, true, &tr), part(2, true, &tr)}
	_, done := run(t, e, func(k func(bool)) { c.CommitK(parts, k) })
	// Two parallel rounds of one RTT (4µs) each.
	if done != 8*sim.Microsecond {
		t.Fatalf("2PC finished at %v, want 8µs (two RTTs)", done)
	}
}

func TestCommitWithSwitchSavesARound(t *testing.T) {
	e := sim.NewEnv(1)
	c := NewCoordinator(testNet(e, 3), 0)
	var tr trace
	switchRan := false
	parts := []Participant{part(1, true, &tr), part(2, true, &tr)}
	_, done := run(t, e, func(k func(bool)) {
		c.CommitWithSwitchK(parts, func(done func()) { switchRan = true; done() }, k)
	})
	if !switchRan || tr.commits != 2 {
		t.Fatalf("switchRan=%v trace=%+v", switchRan, tr)
	}
	// Voting RTT (4µs) + to switch (1µs) + multicast back (1µs) = 6µs,
	// strictly better than classic 2PC + a separate switch trip.
	if done != 6*sim.Microsecond {
		t.Fatalf("combined phase finished at %v, want 6µs", done)
	}
}

func TestCommitWithSwitchSingleNodeSkipsVoting(t *testing.T) {
	e := sim.NewEnv(1)
	c := NewCoordinator(testNet(e, 2), 0)
	var tr trace
	// Only a local participant: Section 6.2 says no voting phase.
	parts := []Participant{part(0, true, &tr)}
	_, done := run(t, e, func(k func(bool)) {
		c.CommitWithSwitchK(parts, func(done func()) { done() }, k)
	})
	if tr.prepares != 0 {
		t.Fatalf("voting phase ran for single-node warm txn: %+v", tr)
	}
	// Straight to the switch and back: 2µs.
	if done != 2*sim.Microsecond {
		t.Fatalf("finished at %v, want 2µs", done)
	}
	if tr.commits != 1 {
		t.Fatalf("local participant not committed: %+v", tr)
	}
}

func TestCommitWithSwitchAbortsBeforeSwitch(t *testing.T) {
	e := sim.NewEnv(1)
	c := NewCoordinator(testNet(e, 3), 0)
	var tr trace
	switchRan := false
	parts := []Participant{part(1, false, &tr)}
	ok, _ := run(t, e, func(k func(bool)) {
		c.CommitWithSwitchK(parts, func(done func()) { switchRan = true; done() }, k)
	})
	if ok || switchRan {
		t.Fatal("switch transaction sent despite failed vote — hot sub-txn must never run for aborted warm txns")
	}
	if tr.aborts != 1 || c.Stats.Aborts != 1 {
		t.Fatalf("trace = %+v stats = %+v", tr, c.Stats)
	}
}

func TestCommitWithSwitchParticipantsCommitViaMulticast(t *testing.T) {
	e := sim.NewEnv(1)
	c := NewCoordinator(testNet(e, 3), 0)
	var commitAt []sim.Time
	mk := func(node netsim.NodeID) Participant {
		return Participant{
			Node:     node,
			PrepareK: func(done func(bool)) { done(true) },
			Commit:   func() { commitAt = append(commitAt, e.Now()) },
			Abort:    func() {},
		}
	}
	parts := []Participant{mk(1), mk(2)}
	run(t, e, func(k func(bool)) { c.CommitWithSwitchK(parts, func(done func()) { done() }, k) })
	if len(commitAt) != 2 {
		t.Fatalf("commits = %d", len(commitAt))
	}
	// Both participants get the decision from the switch multicast at the
	// same instant: vote RTT (4µs) + to-switch (1µs) + multicast (1µs).
	for _, at := range commitAt {
		if at != 6*sim.Microsecond {
			t.Fatalf("commitAt = %v, want both at 6µs", commitAt)
		}
	}
}

func TestEmptyParticipants(t *testing.T) {
	e := sim.NewEnv(1)
	c := NewCoordinator(testNet(e, 2), 0)
	if ok, at := run(t, e, func(k func(bool)) { c.CommitK(nil, k) }); !ok || at != 0 {
		t.Fatalf("empty 2PC: ok=%v at %v, want a trivial commit at once", ok, at)
	}
}

func TestSwitchPhaseAfterManualPrepare(t *testing.T) {
	e := sim.NewEnv(1)
	c := NewCoordinator(testNet(e, 3), 0)
	var tr trace
	parts := []Participant{part(1, true, &tr), part(2, true, &tr)}
	ran := false
	_, done := run(t, e, func(k func(bool)) {
		c.PrepareK(parts, func(ok bool) {
			if !ok {
				t.Error("prepare failed")
			}
			// Caller work between vote and send (e.g. WAL append) is allowed.
			e.After(100, func() {
				c.SwitchPhaseK(parts, func(done func()) { ran = true; done() }, func() { k(true) })
			})
		})
	})
	if !ran || tr.commits != 2 {
		t.Fatalf("ran=%v commits=%d", ran, tr.commits)
	}
	// Vote RTT 4µs + 100ns + to-switch 1µs + multicast 1µs.
	if want := 4*sim.Microsecond + 100 + 2*sim.Microsecond; done != want {
		t.Fatalf("done at %v, want %v", done, want)
	}
}

func TestPrepareThenFinishAbort(t *testing.T) {
	e := sim.NewEnv(1)
	c := NewCoordinator(testNet(e, 3), 0)
	var tr trace
	parts := []Participant{part(1, true, &tr), part(2, false, &tr)}
	run(t, e, func(k func(bool)) {
		c.PrepareK(parts, func(ok bool) {
			if ok {
				t.Error("prepare should fail")
			}
			c.FinishK(parts, false, func() { k(false) })
		})
	})
	if tr.aborts != 2 || tr.commits != 0 {
		t.Fatalf("trace = %+v", tr)
	}
	if c.Stats.Aborts != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

// TestMulticastFrameSteadyStateZeroAlloc pins the pooled multicast frame
// at zero heap allocations on a 256-node cluster: once the coordinator's
// free list and the frame's parts/nodes scratch are warm, a switch-commit
// multicast — group build, per-node batcher scheduling, delivery of every
// participant's Commit, frame recycling — must not allocate. A capturing
// literal or a rebuilt per-node map anywhere on the path would fail this.
func TestMulticastFrameSteadyStateZeroAlloc(t *testing.T) {
	e := sim.NewEnv(1)
	net := testNet(e, 256)
	c := NewCoordinator(net, 0)
	commits := 0
	commit := func() { commits++ }
	parts := make([]Participant, 0, 8)
	for _, n := range []netsim.NodeID{7, 42, 42, 128, 200, 255} {
		parts = append(parts, Participant{Node: n, Commit: commit})
	}
	// Warm the frame pool, the batchers and the event heap past growth.
	for i := 0; i < 1024; i++ {
		c.multicastCommit(parts)
		e.Run()
	}
	if avg := testing.AllocsPerRun(1000, func() {
		c.multicastCommit(parts)
		c.multicastCommit(parts) // a second in-flight frame from the pool
		e.Run()
	}); avg != 0 {
		t.Fatalf("switch multicast allocates %.2f objects/op, want 0", avg)
	}
	if commits == 0 {
		t.Fatal("no commits delivered")
	}
	if len(c.mcastFree) == 0 {
		t.Fatal("frames were not recycled to the free list")
	}
}

// pinCommits pins a coordinator entry point at zero heap allocations once
// the round, leg and round-trip pools are primed: participants that vote
// after a log-flush delay; one remote (the single round trip), one remote
// beside a co-located one, and three remote (the parallel fan-out); three
// commits in flight at once.
func pinCommits(t *testing.T, start func(c *Coordinator, parts []Participant, k func(bool))) {
	t.Helper()
	e := sim.NewEnv(1)
	c := NewCoordinator(testNet(e, 4), 0)
	prepared, decided, finished := 0, 0, 0
	mk := func(node netsim.NodeID) Participant {
		// One vote in flight per participant at a time, like an engine slot.
		var done func(bool)
		flushed := func() { done(true) }
		return Participant{
			Node: node,
			PrepareK: func(d func(bool)) {
				prepared++
				done = d
				e.After(300, flushed)
			},
			Commit: func() { decided++ },
			Abort:  func() { t.Error("abort after unanimous yes") },
		}
	}
	one := []Participant{mk(1)}
	mixed := []Participant{mk(0), mk(2)}
	three := []Participant{mk(1), mk(2), mk(3)}
	k := func(ok bool) {
		if !ok {
			t.Error("commit failed")
		}
		finished++
	}
	cycle := func() {
		start(c, one, k)
		start(c, mixed, k)
		start(c, three, k)
		e.Run()
	}
	cycle()
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("three commits allocate %.2f objects, want 0", avg)
	}
	if prepared == 0 || finished == 0 || c.Stats.Commits != int64(finished) || c.Stats.Aborts != 0 {
		t.Fatalf("prepared=%d decided=%d finished=%d stats=%+v", prepared, decided, finished, c.Stats)
	}
	if decided != finished/3*6 {
		t.Fatalf("%d commit handlers ran for %d commits, want 6 per three", decided, finished)
	}
}

func TestCommitKZeroAlloc(t *testing.T) {
	pinCommits(t, func(c *Coordinator, parts []Participant, k func(bool)) { c.CommitK(parts, k) })
}

func TestCommitWithSwitchKRemoteZeroAlloc(t *testing.T) {
	switchTxn := func(done func()) { done() }
	pinCommits(t, func(c *Coordinator, parts []Participant, k func(bool)) {
		c.CommitWithSwitchK(parts, switchTxn, k)
	})
}

// refCommitK is the closure-built classic 2PC the pooled round replaced —
// a closure per step and per participant, a wait group per parallel round —
// kept as the reference the pooled round must be indistinguishable from.
func refCommitK(c *Coordinator, parts []Participant, k func(bool)) {
	env := c.net.Env()
	ok := true
	vote := func(p Participant, done func()) {
		p.PrepareK(func(v bool) {
			if !v {
				ok = false
			}
			done()
		})
	}
	decide := func() {
		finished := func() { k(ok) }
		act := func(p Participant) func() {
			if ok {
				return p.Commit
			}
			return p.Abort
		}
		switch len(parts) {
		case 0:
			finished()
		case 1:
			c.net.RPCEventK(c.self, parts[0].Node, act(parts[0]), finished)
		default:
			wg := env.NewWaitGroup(len(parts))
			for _, p := range parts {
				c.net.AsyncRPCEvent(c.self, p.Node, act(p), wg.Done)
			}
			wg.Subscribe(finished)
		}
	}
	switch len(parts) {
	case 0:
		decide()
	case 1:
		c.net.RPCK(c.self, parts[0].Node, func(done func()) { vote(parts[0], done) }, decide)
	default:
		wg := env.NewWaitGroup(len(parts))
		for _, p := range parts {
			c.net.AsyncRPCK(c.self, p.Node, func(done func()) { vote(p, done) }, wg.Done)
		}
		wg.Subscribe(decide)
	}
}

// TestPooledRoundsMatchClosureReference keeps 64 commits in flight at once
// on one coordinator — zero to three participants each, local and remote,
// some voting no, votes arriving after 0 to 2 µs, issued 500 ns apart so
// rounds and legs recycle while their siblings are mid-flight. Every
// handler must run for the same commit at the same instant in the same
// order as under the closure-built reference, with the same outcomes and
// the same number of simulator events.
func TestPooledRoundsMatchClosureReference(t *testing.T) {
	type step struct {
		commit int
		what   string
		at     sim.Time
	}
	run := func(commitK func(c *Coordinator, parts []Participant, k func(bool))) ([]step, int64) {
		e := sim.NewEnv(3)
		c := NewCoordinator(testNet(e, 4), 0)
		rng := sim.NewRNG(17)
		var trace []step
		for commit := 0; commit < 64; commit++ {
			commit := commit
			mark := func(what string) { trace = append(trace, step{commit, what, e.Now()}) }
			var parts []Participant
			for i, n := 0, rng.Intn(4); i < n; i++ {
				vote, flush := rng.Intn(5) != 0, sim.Time(rng.Intn(3))*sim.Microsecond
				parts = append(parts, Participant{
					Node: netsim.NodeID(rng.Intn(4)),
					PrepareK: func(done func(bool)) {
						mark("prepare")
						e.After(flush, func() { done(vote) })
					},
					Commit: func() { mark("commit") },
					Abort:  func() { mark("abort") },
				})
			}
			e.After(sim.Time(commit)*500, func() {
				commitK(c, parts, func(ok bool) {
					if ok {
						mark("committed")
					} else {
						mark("aborted")
					}
				})
			})
		}
		e.Run()
		return trace, e.Events()
	}
	var pooledRounds int
	got, gotEvents := run(func(c *Coordinator, parts []Participant, k func(bool)) {
		c.CommitK(parts, k)
		pooledRounds = len(c.roundFree)
	})
	want, wantEvents := run(refCommitK)
	if len(got) != len(want) {
		t.Fatalf("pooled run traced %d steps, reference %d", len(got), len(want))
	}
	outcomes := map[string]int{}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: pooled %+v, reference %+v", i, got[i], want[i])
		}
		outcomes[want[i].what]++
	}
	if outcomes["committed"]+outcomes["aborted"] != 64 || outcomes["committed"] == 0 || outcomes["aborted"] == 0 {
		t.Fatalf("outcomes %v: want 64 commits ending both ways", outcomes)
	}
	if gotEvents != wantEvents {
		t.Fatalf("pooled run executed %d events, reference %d", gotEvents, wantEvents)
	}
	if pooledRounds == 0 {
		t.Fatal("no round had been recycled by the time the last commit was issued: nothing overlapped a reuse")
	}
}
