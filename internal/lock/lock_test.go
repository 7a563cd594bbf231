package lock

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/sim"
)

func TestSharedLocksCoexist(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1, t2 := NewTxn(1), NewTxn(2)
	e.Spawn("p", func(p *sim.Proc) {
		if err := tb.Acquire(p, t1, 10, Shared); err != nil {
			t.Errorf("t1: %v", err)
		}
		if err := tb.Acquire(p, t2, 10, Shared); err != nil {
			t.Errorf("t2: %v", err)
		}
		if tb.Owners(10) != 2 {
			t.Errorf("owners = %d, want 2", tb.Owners(10))
		}
	})
	e.Run()
}

func TestExclusiveConflictsNoWait(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1, t2 := NewTxn(1), NewTxn(2)
	e.Spawn("p", func(p *sim.Proc) {
		if err := tb.Acquire(p, t1, 10, Exclusive); err != nil {
			t.Errorf("t1: %v", err)
		}
		err := tb.Acquire(p, t2, 10, Exclusive)
		if !errors.Is(err, ErrAbort) || !errors.Is(err, ErrConflict) {
			t.Errorf("t2 err = %v, want ErrConflict", err)
		}
		err = tb.Acquire(p, t2, 10, Shared)
		if !errors.Is(err, ErrConflict) {
			t.Errorf("t2 shared err = %v, want ErrConflict", err)
		}
	})
	e.Run()
}

func TestReacquireIsNoop(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1 := NewTxn(1)
	e.Spawn("p", func(p *sim.Proc) {
		if err := tb.Acquire(p, t1, 5, Exclusive); err != nil {
			t.Fatal(err)
		}
		if err := tb.Acquire(p, t1, 5, Exclusive); err != nil {
			t.Errorf("re-acquire X: %v", err)
		}
		if err := tb.Acquire(p, t1, 5, Shared); err != nil {
			t.Errorf("S after X: %v", err)
		}
		if t1.NumHeld() != 1 {
			t.Errorf("NumHeld = %d, want 1", t1.NumHeld())
		}
	})
	e.Run()
}

func TestUpgradeSoleOwner(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1 := NewTxn(1)
	e.Spawn("p", func(p *sim.Proc) {
		if err := tb.Acquire(p, t1, 5, Shared); err != nil {
			t.Fatal(err)
		}
		if err := tb.Acquire(p, t1, 5, Exclusive); err != nil {
			t.Errorf("sole-owner upgrade failed: %v", err)
		}
		if m, _ := t1.Holds(5); m != Exclusive {
			t.Errorf("mode = %v, want X", m)
		}
	})
	e.Run()
}

func TestUpgradeConflictNoWait(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1, t2 := NewTxn(1), NewTxn(2)
	e.Spawn("p", func(p *sim.Proc) {
		_ = tb.Acquire(p, t1, 5, Shared)
		_ = tb.Acquire(p, t2, 5, Shared)
		if err := tb.Acquire(p, t1, 5, Exclusive); !errors.Is(err, ErrConflict) {
			t.Errorf("upgrade with co-owner: %v, want conflict", err)
		}
	})
	e.Run()
}

func TestReleaseAllFreesLocks(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1, t2 := NewTxn(1), NewTxn(2)
	e.Spawn("p", func(p *sim.Proc) {
		_ = tb.Acquire(p, t1, 1, Exclusive)
		_ = tb.Acquire(p, t1, 2, Shared)
		tb.ReleaseAll(t1)
		if t1.NumHeld() != 0 {
			t.Errorf("NumHeld = %d after release", t1.NumHeld())
		}
		if err := tb.Acquire(p, t2, 1, Exclusive); err != nil {
			t.Errorf("lock not freed: %v", err)
		}
	})
	e.Run()
}

func TestWaitDieOlderWaits(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, WaitDie)
	old, young := NewTxn(1), NewTxn(2)
	var grantedAt sim.Time
	e.Spawn("young", func(p *sim.Proc) {
		if err := tb.Acquire(p, young, 7, Exclusive); err != nil {
			t.Errorf("young: %v", err)
		}
		p.Sleep(100)
		tb.ReleaseAll(young)
	})
	e.Spawn("old", func(p *sim.Proc) {
		p.Sleep(10) // let young take the lock first
		if err := tb.Acquire(p, old, 7, Exclusive); err != nil {
			t.Errorf("old should wait, got %v", err)
		}
		grantedAt = p.Now()
	})
	e.Run()
	if grantedAt != 100 {
		t.Fatalf("old granted at %v, want 100 (young's release)", grantedAt)
	}
}

func TestWaitDieYoungerDies(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, WaitDie)
	old, young := NewTxn(1), NewTxn(2)
	e.Spawn("p", func(p *sim.Proc) {
		if err := tb.Acquire(p, old, 7, Exclusive); err != nil {
			t.Fatal(err)
		}
		err := tb.Acquire(p, young, 7, Exclusive)
		if !errors.Is(err, ErrDie) {
			t.Errorf("young err = %v, want ErrDie", err)
		}
	})
	e.Run()
}

func TestWaitDieNeverDeadlocks(t *testing.T) {
	// Many transactions locking overlapping key pairs in opposite orders:
	// with WAIT_DIE the simulation must always drain (no deadlock leaves
	// parked processes, which Run would expose as a non-empty Live set).
	e := sim.NewEnv(17)
	tb := NewTable(e, WaitDie)
	var ts uint64
	committed := 0
	for w := 0; w < 16; w++ {
		rng := e.Rand().Fork(uint64(w))
		e.Spawn("w", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				ts++
				txn := NewTxn(ts)
				k1 := Key(rng.Intn(5))
				k2 := Key(rng.Intn(5))
				ok := true
				if err := tb.Acquire(p, txn, k1, Exclusive); err != nil {
					ok = false
				}
				if ok {
					p.Sleep(sim.Time(rng.Intn(50)))
					if err := tb.Acquire(p, txn, k2, Exclusive); err != nil {
						ok = false
					}
				}
				if ok {
					p.Sleep(sim.Time(rng.Intn(50)))
					committed++
				}
				tb.ReleaseAll(txn)
				p.Sleep(sim.Time(rng.Intn(20)))
			}
		})
	}
	e.Run()
	if e.Live() != 0 {
		t.Fatalf("%d processes still parked: deadlock", e.Live())
	}
	if committed == 0 {
		t.Fatal("nothing committed")
	}
	if tb.Stats.Aborts == 0 {
		t.Fatal("expected some WAIT_DIE aborts under contention")
	}
}

func TestMutualExclusionInvariant(t *testing.T) {
	// Property: at no instant do two transactions hold X on the same key.
	// We track a critical-section counter guarded by the lock.
	for _, pol := range []Policy{NoWait, WaitDie} {
		e := sim.NewEnv(23)
		tb := NewTable(e, pol)
		inCS := 0
		var ts uint64
		violations := 0
		for w := 0; w < 12; w++ {
			rng := e.Rand().Fork(uint64(w))
			e.Spawn("w", func(p *sim.Proc) {
				for i := 0; i < 40; i++ {
					ts++
					txn := NewTxn(ts)
					if err := tb.Acquire(p, txn, 1, Exclusive); err == nil {
						inCS++
						if inCS > 1 {
							violations++
						}
						p.Sleep(sim.Time(rng.Intn(30) + 1))
						inCS--
					}
					tb.ReleaseAll(txn)
					p.Sleep(sim.Time(rng.Intn(10)))
				}
			})
		}
		e.Run()
		if violations > 0 {
			t.Fatalf("policy %v: %d mutual-exclusion violations", pol, violations)
		}
	}
}

func TestWaitersGrantedFIFO(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, WaitDie)
	holder := NewTxn(100)
	var order []int
	e.Spawn("holder", func(p *sim.Proc) {
		_ = tb.Acquire(p, holder, 9, Exclusive)
		p.Sleep(1000)
		tb.ReleaseAll(holder)
	})
	for i := 0; i < 3; i++ {
		i := i
		txn := NewTxn(uint64(i + 1)) // older than holder -> waits
		e.Spawn("waiter", func(p *sim.Proc) {
			p.Sleep(sim.Time(10 * (i + 1))) // arrive in order 0,1,2
			if err := tb.Acquire(p, txn, 9, Exclusive); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order = append(order, i)
			p.Sleep(5)
			tb.ReleaseAll(txn)
		})
	}
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("grant order = %v, want [0 1 2]", order)
	}
}

func TestSharedWaitersGrantedTogether(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, WaitDie)
	holder := NewTxn(100)
	var grantTimes []sim.Time
	e.Spawn("holder", func(p *sim.Proc) {
		_ = tb.Acquire(p, holder, 9, Exclusive)
		p.Sleep(500)
		tb.ReleaseAll(holder)
	})
	for i := 0; i < 3; i++ {
		txn := NewTxn(uint64(i + 1))
		e.Spawn("reader", func(p *sim.Proc) {
			p.Sleep(10)
			if err := tb.Acquire(p, txn, 9, Shared); err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			grantTimes = append(grantTimes, p.Now())
		})
	}
	e.Run()
	if len(grantTimes) != 3 {
		t.Fatalf("grants = %d, want 3", len(grantTimes))
	}
	for _, g := range grantTimes {
		if g != 500 {
			t.Fatalf("shared waiters not granted together: %v", grantTimes)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy("NO_WAIT"); err != nil || p != NoWait {
		t.Fatalf("NO_WAIT: %v %v", p, err)
	}
	if p, err := ParsePolicy("WAIT_DIE"); err != nil || p != WaitDie {
		t.Fatalf("WAIT_DIE: %v %v", p, err)
	}
	if _, err := ParsePolicy("2PL"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestStatsCounting(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1, t2 := NewTxn(1), NewTxn(2)
	e.Spawn("p", func(p *sim.Proc) {
		_ = tb.Acquire(p, t1, 1, Exclusive)
		_ = tb.Acquire(p, t2, 1, Exclusive) // conflict + abort
	})
	e.Run()
	if tb.Stats.Acquired != 1 || tb.Stats.Conflicts != 1 || tb.Stats.Aborts != 1 {
		t.Fatalf("stats = %+v", tb.Stats)
	}
}

func TestEntryGarbageCollected(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1 := NewTxn(1)
	e.Spawn("p", func(p *sim.Proc) {
		_ = tb.Acquire(p, t1, 1, Exclusive)
		tb.ReleaseAll(t1)
	})
	e.Run()
	if len(tb.entries) != 0 {
		t.Fatalf("entries leaked: %d", len(tb.entries))
	}
}

func TestAcquireWaitNeverAborts(t *testing.T) {
	// AcquireWait must wait FIFO regardless of the table's policy — here
	// NO_WAIT, which would abort a plain Acquire immediately.
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1, t2 := NewTxn(1), NewTxn(2)
	var got []int
	e.Spawn("holder", func(p *sim.Proc) {
		tb.AcquireWait(p, t1, 10, Exclusive)
		p.Sleep(5 * sim.Microsecond)
		got = append(got, 1)
		tb.ReleaseAll(t1)
	})
	e.Spawn("waiter", func(p *sim.Proc) {
		p.Sleep(1 * sim.Microsecond)
		tb.AcquireWait(p, t2, 10, Exclusive)
		got = append(got, 2)
		if _, held := t2.Holds(10); !held {
			t.Error("waiter resumed without holding the lock")
		}
		tb.ReleaseAll(t2)
	})
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("execution order = %v, want [1 2] (waiter granted on release)", got)
	}
	if tb.Stats.Aborts != 0 {
		t.Fatalf("AcquireWait recorded %d aborts, want 0", tb.Stats.Aborts)
	}
}

func TestAcquireWaitFIFOOrderAndNoOvertaking(t *testing.T) {
	// A compatible (shared) request arriving behind a queued exclusive
	// waiter must queue FIFO instead of overtaking it: grant order is
	// arrival order, which keeps deterministic schedules reproducible.
	e := sim.NewEnv(1)
	tb := NewTable(e, WaitDie)
	holder, xreq, sreq := NewTxn(1), NewTxn(2), NewTxn(3)
	var got []int
	e.Spawn("holder", func(p *sim.Proc) {
		tb.AcquireWait(p, holder, 7, Shared)
		p.Sleep(10 * sim.Microsecond)
		tb.ReleaseAll(holder)
	})
	e.Spawn("exclusive", func(p *sim.Proc) {
		p.Sleep(1 * sim.Microsecond)
		tb.AcquireWait(p, xreq, 7, Exclusive)
		got = append(got, 2)
		p.Sleep(1 * sim.Microsecond)
		tb.ReleaseAll(xreq)
	})
	e.Spawn("shared", func(p *sim.Proc) {
		p.Sleep(2 * sim.Microsecond)
		// Compatible with the shared holder, but behind the exclusive
		// waiter in the queue.
		tb.AcquireWait(p, sreq, 7, Shared)
		got = append(got, 3)
		tb.ReleaseAll(sreq)
	})
	e.Run()
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("grant order = %v, want [2 3] (FIFO, no overtaking)", got)
	}
}

func TestAcquireWaitReacquireIsNoopAndUpgradePanics(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1 := NewTxn(1)
	e.Spawn("p", func(p *sim.Proc) {
		tb.AcquireWait(p, t1, 5, Exclusive)
		tb.AcquireWait(p, t1, 5, Exclusive) // no-op
		tb.AcquireWait(p, t1, 5, Shared)    // weaker: no-op
		if tb.Owners(5) != 1 {
			t.Errorf("owners = %d, want 1", tb.Owners(5))
		}
		tb.AcquireWait(p, t1, 6, Shared)
		defer func() {
			if recover() == nil {
				t.Error("S->X upgrade via AcquireWait did not panic")
			}
		}()
		tb.AcquireWait(p, t1, 6, Exclusive)
	})
	e.Run()
}

func TestReleaseAllOrderedGrantsInKeyOrder(t *testing.T) {
	// One transaction holds several contended keys; on ordered release the
	// waiters must be woken in ascending key order, independent of map
	// iteration order. (This is what keeps calvin schedules seeded-stable.)
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	holder := NewTxn(1)
	keys := []Key{40, 10, 30, 20}
	var woken []Key
	e.Spawn("holder", func(p *sim.Proc) {
		for _, k := range keys {
			tb.AcquireWait(p, holder, k, Exclusive)
		}
		p.Sleep(5 * sim.Microsecond)
		tb.ReleaseAllOrdered(holder)
		if holder.NumHeld() != 0 {
			t.Errorf("holder still holds %d locks after ReleaseAllOrdered", holder.NumHeld())
		}
	})
	for i, k := range keys {
		k := k
		w := NewTxn(uint64(10 + i))
		e.Spawn("waiter", func(p *sim.Proc) {
			p.Sleep(1 * sim.Microsecond)
			tb.AcquireWait(p, w, k, Exclusive)
			woken = append(woken, k)
			tb.ReleaseAll(w)
		})
	}
	e.Run()
	want := []Key{10, 20, 30, 40}
	if len(woken) != len(want) {
		t.Fatalf("woke %d waiters, want %d", len(woken), len(want))
	}
	for i := range want {
		if woken[i] != want[i] {
			t.Fatalf("wake order = %v, want %v (ascending keys)", woken, want)
		}
	}
}

// TestAcquireKWaitDieZeroAlloc pins a WAIT_DIE wait — an older requester
// queues behind a younger owner, the release grants it and wakes it with
// one same-instant event — at zero heap allocations once the table's entry
// and waiter pools are primed. The die and immediate-grant outcomes ride
// along. Continuations are pre-built: a capturing literal in the measured
// function would itself allocate.
func TestAcquireKWaitDieZeroAlloc(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, WaitDie)
	young, old, younger := NewTxn(0), NewTxn(0), NewTxn(0)
	var ts uint64 = 10
	woken, died := 0, 0
	granted := func(err error) {
		if err != nil {
			t.Fatalf("owner denied: %v", err)
		}
	}
	wake := func(err error) {
		if err != nil {
			t.Fatalf("waiter woken with %v", err)
		}
		woken++
	}
	die := func(err error) {
		if !errors.Is(err, ErrDie) {
			t.Fatalf("younger requester got %v, want ErrDie", err)
		}
		died++
	}
	cycle := func() {
		ts += 10
		young.Reset(ts)
		old.Reset(ts - 5)
		younger.Reset(ts + 5)
		tb.AcquireK(young, 7, Exclusive, granted)
		tb.AcquireK(young, 8, Shared, granted)
		tb.AcquireK(old, 7, Exclusive, wake) // waits
		tb.AcquireK(younger, 7, Shared, die) // dies
		if tb.WaiterCount(7) != 1 {
			t.Fatalf("%d waiters queued, want 1", tb.WaiterCount(7))
		}
		tb.ReleaseAll(young) // grants old, schedules its wake-up
		e.Run()
		if m, ok := old.Holds(7); !ok || m != Exclusive {
			t.Fatal("the waiter was woken without holding the lock")
		}
		tb.ReleaseAll(old)
	}
	cycle()
	events := e.Events()
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("a WAIT_DIE wait allocates %.2f objects/op, want 0", avg)
	}
	if woken != died || woken < 1000 {
		t.Fatalf("%d wake-ups, %d dies", woken, died)
	}
	if got := e.Events() - events; got != int64(woken-1) {
		t.Fatalf("%d events for %d grants, want exactly one per waiter", got, woken-1)
	}
	if len(tb.entries) != 0 || tb.Stats.Waits != int64(woken) {
		t.Fatalf("%d entries left, stats %+v", len(tb.entries), tb.Stats)
	}
}

// TestReleaseAllGrantsInAcquisitionOrder: ReleaseAll walks the lock set in
// the order it was acquired, so waiters on several released keys wake in
// the same order on every run (the set used to be a map).
func TestReleaseAllGrantsInAcquisitionOrder(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, WaitDie)
	holder := NewTxn(100)
	keys := []Key{40, 10, 30, 20}
	var woken []Key
	for i, k := range keys {
		k := k
		tb.AcquireK(holder, k, Exclusive, func(error) {})
		tb.AcquireK(NewTxn(uint64(i)), k, Exclusive, func(error) { woken = append(woken, k) })
	}
	tb.ReleaseAll(holder)
	e.Run()
	if !slices.Equal(woken, keys) {
		t.Fatalf("wake order = %v, want acquisition order %v", woken, keys)
	}
}
