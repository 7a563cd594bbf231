package lock

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/sim"
)

// acquireNow runs AcquireK for a request the table decides on the spot and
// returns the outcome; it fails the test if the request queued instead.
func acquireNow(t *testing.T, tb *Table, txn *Txn, key Key, m Mode) error {
	t.Helper()
	var err error
	decided := false
	tb.AcquireK(txn, key, m, func(e error) { err, decided = e, true })
	if !decided {
		t.Fatalf("request for key %d queued, want an immediate decision", key)
	}
	return err
}

func TestSharedLocksCoexist(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1, t2 := NewTxn(1), NewTxn(2)
	if err := acquireNow(t, tb, t1, 10, Shared); err != nil {
		t.Errorf("t1: %v", err)
	}
	if err := acquireNow(t, tb, t2, 10, Shared); err != nil {
		t.Errorf("t2: %v", err)
	}
	if tb.Owners(10) != 2 {
		t.Errorf("owners = %d, want 2", tb.Owners(10))
	}
}

func TestExclusiveConflictsNoWait(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1, t2 := NewTxn(1), NewTxn(2)
	if err := acquireNow(t, tb, t1, 10, Exclusive); err != nil {
		t.Errorf("t1: %v", err)
	}
	err := acquireNow(t, tb, t2, 10, Exclusive)
	if !errors.Is(err, ErrAbort) || !errors.Is(err, ErrConflict) {
		t.Errorf("t2 err = %v, want ErrConflict", err)
	}
	err = acquireNow(t, tb, t2, 10, Shared)
	if !errors.Is(err, ErrConflict) {
		t.Errorf("t2 shared err = %v, want ErrConflict", err)
	}
}

func TestReacquireIsNoop(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1 := NewTxn(1)
	if err := acquireNow(t, tb, t1, 5, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := acquireNow(t, tb, t1, 5, Exclusive); err != nil {
		t.Errorf("re-acquire X: %v", err)
	}
	if err := acquireNow(t, tb, t1, 5, Shared); err != nil {
		t.Errorf("S after X: %v", err)
	}
	if t1.NumHeld() != 1 {
		t.Errorf("NumHeld = %d, want 1", t1.NumHeld())
	}
}

func TestUpgradeSoleOwner(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1 := NewTxn(1)
	if err := acquireNow(t, tb, t1, 5, Shared); err != nil {
		t.Fatal(err)
	}
	if err := acquireNow(t, tb, t1, 5, Exclusive); err != nil {
		t.Errorf("sole-owner upgrade failed: %v", err)
	}
	if m, _ := t1.Holds(5); m != Exclusive {
		t.Errorf("mode = %v, want X", m)
	}
}

func TestUpgradeConflictNoWait(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1, t2 := NewTxn(1), NewTxn(2)
	_ = acquireNow(t, tb, t1, 5, Shared)
	_ = acquireNow(t, tb, t2, 5, Shared)
	if err := acquireNow(t, tb, t1, 5, Exclusive); !errors.Is(err, ErrConflict) {
		t.Errorf("upgrade with co-owner: %v, want conflict", err)
	}
}

func TestReleaseAllFreesLocks(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1, t2 := NewTxn(1), NewTxn(2)
	_ = acquireNow(t, tb, t1, 1, Exclusive)
	_ = acquireNow(t, tb, t1, 2, Shared)
	tb.ReleaseAll(t1)
	if t1.NumHeld() != 0 {
		t.Errorf("NumHeld = %d after release", t1.NumHeld())
	}
	if err := acquireNow(t, tb, t2, 1, Exclusive); err != nil {
		t.Errorf("lock not freed: %v", err)
	}
}

func TestWaitDieOlderWaits(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, WaitDie)
	old, young := NewTxn(1), NewTxn(2)
	var grantedAt sim.Time
	if err := acquireNow(t, tb, young, 7, Exclusive); err != nil {
		t.Errorf("young: %v", err)
	}
	e.After(100, func() { tb.ReleaseAll(young) })
	e.After(10, func() { // young took the lock first
		tb.AcquireK(old, 7, Exclusive, func(err error) {
			if err != nil {
				t.Errorf("old should wait, got %v", err)
			}
			grantedAt = e.Now()
		})
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
	if err := acquireNow(t, tb, old, 7, Exclusive); err != nil {
		t.Fatal(err)
	}
	err := acquireNow(t, tb, young, 7, Exclusive)
	if !errors.Is(err, ErrDie) {
		t.Errorf("young err = %v, want ErrDie", err)
	}
}

func TestWaitDieNeverDeadlocks(t *testing.T) {
	// Many transactions locking overlapping key pairs in opposite orders:
	// with WAIT_DIE the simulation must always drain with every worker
	// chain finished (a deadlock strands a chain in a lock queue).
	e := sim.NewEnv(17)
	tb := NewTable(e, WaitDie)
	var ts uint64
	committed, finished := 0, 0
	for w := 0; w < 16; w++ {
		rng := e.Rand().Fork(uint64(w))
		i := 0
		var iter func()
		iter = func() {
			if i == 50 {
				finished++
				return
			}
			i++
			ts++
			txn := NewTxn(ts)
			k1 := Key(rng.Intn(5))
			k2 := Key(rng.Intn(5))
			next := func() {
				tb.ReleaseAll(txn)
				e.After(sim.Time(rng.Intn(20)), iter)
			}
			tb.AcquireK(txn, k1, Exclusive, func(err error) {
				if err != nil {
					next()
					return
				}
				e.After(sim.Time(rng.Intn(50)), func() {
					tb.AcquireK(txn, k2, Exclusive, func(err error) {
						if err != nil {
							next()
							return
						}
						e.After(sim.Time(rng.Intn(50)), func() {
							committed++
							next()
						})
					})
				})
			})
		}
		e.After(0, iter)
	}
	e.Run()
	if finished != 16 {
		t.Fatalf("%d of 16 workers finished: deadlock", finished)
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
			i := 0
			var iter func()
			iter = func() {
				if i == 40 {
					return
				}
				i++
				ts++
				txn := NewTxn(ts)
				next := func() {
					tb.ReleaseAll(txn)
					e.After(sim.Time(rng.Intn(10)), iter)
				}
				tb.AcquireK(txn, 1, Exclusive, func(err error) {
					if err != nil {
						next()
						return
					}
					inCS++
					if inCS > 1 {
						violations++
					}
					e.After(sim.Time(rng.Intn(30)+1), func() {
						inCS--
						next()
					})
				})
			}
			e.After(0, iter)
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
	_ = acquireNow(t, tb, holder, 9, Exclusive)
	e.After(1000, func() { tb.ReleaseAll(holder) })
	for i := 0; i < 3; i++ {
		i := i
		txn := NewTxn(uint64(i + 1))         // older than holder -> waits
		e.After(sim.Time(10*(i+1)), func() { // arrive in order 0,1,2
			tb.AcquireK(txn, 9, Exclusive, func(err error) {
				if err != nil {
					t.Errorf("waiter %d: %v", i, err)
					return
				}
				order = append(order, i)
				e.After(5, func() { tb.ReleaseAll(txn) })
			})
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
	_ = acquireNow(t, tb, holder, 9, Exclusive)
	e.After(500, func() { tb.ReleaseAll(holder) })
	for i := 0; i < 3; i++ {
		txn := NewTxn(uint64(i + 1))
		e.After(10, func() {
			tb.AcquireK(txn, 9, Shared, func(err error) {
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				grantTimes = append(grantTimes, e.Now())
			})
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
	_ = acquireNow(t, tb, t1, 1, Exclusive)
	_ = acquireNow(t, tb, t2, 1, Exclusive) // conflict + abort
	if tb.Stats.Acquired != 1 || tb.Stats.Conflicts != 1 || tb.Stats.Aborts != 1 {
		t.Fatalf("stats = %+v", tb.Stats)
	}
}

func TestEntryGarbageCollected(t *testing.T) {
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1 := NewTxn(1)
	_ = acquireNow(t, tb, t1, 1, Exclusive)
	tb.ReleaseAll(t1)
	if len(tb.entries) != 0 {
		t.Fatalf("entries leaked: %d", len(tb.entries))
	}
}

// acquireWaitNow runs AcquireWaitK for a request granted on the spot; it
// fails the test if the request queued instead.
func acquireWaitNow(t *testing.T, tb *Table, txn *Txn, key Key, m Mode) {
	t.Helper()
	granted := false
	tb.AcquireWaitK(txn, key, m, func() { granted = true })
	if !granted {
		t.Fatalf("request for key %d queued, want an immediate grant", key)
	}
}

func TestAcquireWaitNeverAborts(t *testing.T) {
	// AcquireWaitK must wait FIFO regardless of the table's policy — here
	// NO_WAIT, which would abort a plain AcquireK immediately.
	e := sim.NewEnv(1)
	tb := NewTable(e, NoWait)
	t1, t2 := NewTxn(1), NewTxn(2)
	var got []int
	acquireWaitNow(t, tb, t1, 10, Exclusive)
	e.After(5*sim.Microsecond, func() {
		got = append(got, 1)
		tb.ReleaseAll(t1)
	})
	e.After(1*sim.Microsecond, func() {
		tb.AcquireWaitK(t2, 10, Exclusive, func() {
			got = append(got, 2)
			if _, held := t2.Holds(10); !held {
				t.Error("waiter resumed without holding the lock")
			}
			tb.ReleaseAll(t2)
		})
	})
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("execution order = %v, want [1 2] (waiter granted on release)", got)
	}
	if tb.Stats.Aborts != 0 {
		t.Fatalf("AcquireWaitK recorded %d aborts, want 0", tb.Stats.Aborts)
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
	acquireWaitNow(t, tb, holder, 7, Shared)
	e.After(10*sim.Microsecond, func() { tb.ReleaseAll(holder) })
	e.After(1*sim.Microsecond, func() {
		tb.AcquireWaitK(xreq, 7, Exclusive, func() {
			got = append(got, 2)
			e.After(1*sim.Microsecond, func() { tb.ReleaseAll(xreq) })
		})
	})
	e.After(2*sim.Microsecond, func() {
		// Compatible with the shared holder, but behind the exclusive
		// waiter in the queue.
		tb.AcquireWaitK(sreq, 7, Shared, func() {
			got = append(got, 3)
			tb.ReleaseAll(sreq)
		})
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
	acquireWaitNow(t, tb, t1, 5, Exclusive)
	acquireWaitNow(t, tb, t1, 5, Exclusive) // no-op
	acquireWaitNow(t, tb, t1, 5, Shared)    // weaker: no-op
	if tb.Owners(5) != 1 {
		t.Errorf("owners = %d, want 1", tb.Owners(5))
	}
	acquireWaitNow(t, tb, t1, 6, Shared)
	defer func() {
		if recover() == nil {
			t.Error("S->X upgrade via AcquireWaitK did not panic")
		}
	}()
	tb.AcquireWaitK(t1, 6, Exclusive, func() {})
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
	for _, k := range keys {
		acquireWaitNow(t, tb, holder, k, Exclusive)
	}
	e.After(5*sim.Microsecond, func() {
		tb.ReleaseAllOrdered(holder)
		if holder.NumHeld() != 0 {
			t.Errorf("holder still holds %d locks after ReleaseAllOrdered", holder.NumHeld())
		}
	})
	for i, k := range keys {
		k := k
		w := NewTxn(uint64(10 + i))
		e.After(1*sim.Microsecond, func() {
			tb.AcquireWaitK(w, k, Exclusive, func() {
				woken = append(woken, k)
				tb.ReleaseAll(w)
			})
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
