package sim

import (
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

// TestSleepAdvancesClock: a continuation sleeps by scheduling the rest of
// its work with After; the clock reads the wake-up instant when it runs.
func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv(1)
	var woke Time
	e.After(5*Microsecond, func() { woke = e.Now() })
	e.Run()
	if woke != 5*Microsecond {
		t.Fatalf("woke at %v, want 5µs", woke)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEnv(1)
	var order []int
	e.After(30, func() { order = append(order, 3) })
	e.After(10, func() { order = append(order, 1) })
	e.After(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestSameTimeEventsAreFIFO(t *testing.T) {
	e := NewEnv(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break violated)", i, v, i)
		}
	}
}

// TestNegativeSleepIsZero: a negative delay runs at the current instant,
// after the same-instant events already queued.
func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEnv(1)
	var order []int
	e.After(0, func() { order = append(order, 1) })
	e.After(-5, func() {
		order = append(order, 2)
		if e.Now() != 0 {
			t.Errorf("clock moved backwards: %v", e.Now())
		}
	})
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

// TestTwoProcessesInterleave: two continuation chains started at the same
// instant interleave on the virtual clock in time order, ties in start
// order.
func TestTwoProcessesInterleave(t *testing.T) {
	e := NewEnv(1)
	var trace []string
	e.After(0, func() {
		trace = append(trace, "a0")
		e.After(10, func() {
			trace = append(trace, "a10")
			e.After(20, func() { trace = append(trace, "a30") })
		})
	})
	e.After(0, func() {
		trace = append(trace, "b0")
		e.After(15, func() { trace = append(trace, "b15") })
	})
	e.Run()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

// TestSignalWakesAllWaiters: Fire wakes every subscriber at the fire
// instant, in subscription order, each as its own scheduled event.
func TestSignalWakesAllWaiters(t *testing.T) {
	e := NewEnv(1)
	s := e.NewSignal()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Subscribe(func() {
			if e.Now() != 100 {
				t.Errorf("waiter %d woke at %v, want 100", i, e.Now())
			}
			order = append(order, i)
		})
	}
	e.After(100, func() {
		s.Fire()
		if len(order) != 0 {
			t.Error("Fire ran a subscriber inline")
		}
	})
	e.Run()
	if len(order) != 5 {
		t.Fatalf("woken = %d, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order = %v, want subscription order", order)
		}
	}
	if e.Events() != 6 {
		t.Fatalf("ran %d events, want 6 (the firer plus one per subscriber)", e.Events())
	}
}

// TestAwaitFiredSignalReturnsImmediately: subscribing to a signal that
// already fired runs the continuation inline, at the subscribe instant,
// without scheduling an event.
func TestAwaitFiredSignalReturnsImmediately(t *testing.T) {
	e := NewEnv(1)
	s := e.NewSignal()
	s.Fire()
	var at Time = -1
	e.After(9, func() {
		s.Subscribe(func() { at = e.Now() })
		if at != 9 {
			t.Errorf("Subscribe after Fire did not run inline (at = %v)", at)
		}
	})
	e.Run()
	if at != 9 || e.Events() != 1 {
		t.Fatalf("ran at %v after %d events, want 9 after 1", at, e.Events())
	}
}

// TestSignalSecondFireIgnored: a second Fire neither re-runs subscribers
// nor wakes ones that subscribed after the first.
func TestSignalSecondFireIgnored(t *testing.T) {
	e := NewEnv(1)
	s := e.NewSignal()
	runs := 0
	s.Subscribe(func() { runs++ })
	s.Fire()
	s.Fire()
	e.Run()
	if runs != 1 {
		t.Fatalf("subscriber ran %d times, want 1", runs)
	}
	e.After(5, s.Fire)
	e.Run()
	if runs != 1 || e.Events() != 2 {
		t.Fatalf("second Fire woke subscribers again (runs %d, events %d)", runs, e.Events())
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEnv(1)
	wg := e.NewWaitGroup(3)
	var doneAt Time
	wg.Subscribe(func() { doneAt = e.Now() })
	for i := 1; i <= 3; i++ {
		d := Time(i * 10)
		e.After(d, wg.Done)
	}
	e.Run()
	if doneAt != 30 {
		t.Fatalf("doneAt = %v, want 30 (last Done)", doneAt)
	}
}

func TestWaitGroupZero(t *testing.T) {
	e := NewEnv(1)
	wg := e.NewWaitGroup(0)
	ran := false
	wg.Subscribe(func() { ran = true })
	if !ran {
		t.Fatal("waiter never resumed on zero-count group")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEnv(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		e.After(10, tick)
	}
	e.After(10, tick)
	e.RunUntil(95)
	if count != 9 {
		t.Fatalf("count = %d, want 9 ticks by t=95", count)
	}
	if e.Now() != 95 {
		t.Fatalf("Now = %v, want 95", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want the t=100 tick still queued", e.Pending())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed uint64) []int64 {
		e := NewEnv(seed)
		var trace []int64
		for i := 0; i < 8; i++ {
			k := 0
			var step func()
			step = func() {
				if k > 0 {
					trace = append(trace, int64(e.Now()))
				}
				if k++; k <= 50 {
					e.After(Time(e.Rand().Intn(100)+1), step)
				}
			}
			e.After(0, step)
		}
		e.Run()
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGUniformityRough(t *testing.T) {
	r := NewRNG(9)
	buckets := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("bucket %d has %d of %d draws (non-uniform)", i, c, n)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	f := func(n uint8) bool {
		m := int(n%50) + 1
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(11)
	a := r.Fork(1)
	b := r.Fork(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("forked streams correlate: %d/100 equal draws", same)
	}
}

func TestBoolPercent(t *testing.T) {
	r := NewRNG(13)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(25) {
			hits++
		}
	}
	if hits < n/4-n/50 || hits > n/4+n/50 {
		t.Fatalf("Bool(25) hit %d of %d (expected ~25%%)", hits, n)
	}
}
