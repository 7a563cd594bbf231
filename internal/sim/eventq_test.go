package sim

import (
	"container/heap"
	"testing"
)

// refEvent / refHeap is a minimal container/heap implementation with the
// scheduler's ordering contract, used as the oracle for the property test.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// TestEventQueueMatchesReferenceHeap drives the production queue and a
// container/heap reference through the same random schedule-and-drain
// workload, mimicking how the scheduler uses it: pops advance a virtual
// clock, pushes draw monotonic sequence numbers, and a fraction of pushes
// are zero-delay (landing in the ring). The pop order must match the
// reference exactly.
func TestEventQueueMatchesReferenceHeap(t *testing.T) {
	rng := NewRNG(1234)
	for round := 0; round < 50; round++ {
		var q eventQueue
		var ref refHeap
		var now Time
		var seq uint64
		nextID := 0
		popped := make(map[int]bool)

		push := func() {
			var delay Time
			switch rng.Intn(3) {
			case 0:
				delay = 0 // fast path
			default:
				delay = Time(rng.Intn(1000))
			}
			seq++
			id := nextID
			nextID++
			ev := event{at: now + delay, seq: seq, fn: func() {}}
			if delay == 0 {
				q.pushNow(ev)
			} else {
				q.pushTimed(ev)
			}
			// Smuggle the id through the seq (unique), tracked on the side.
			heap.Push(&ref, refEvent{at: now + delay, seq: seq, id: id})
		}

		for i := 0; i < 200; i++ {
			push()
		}
		for q.len() > 0 {
			if at, ok := q.peekAt(); !ok || at != ref[0].at {
				t.Fatalf("round %d: peekAt mismatch: got %v, want %v", round, at, ref[0].at)
			}
			got := q.pop()
			want := heap.Pop(&ref).(refEvent)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("round %d: pop (at=%v seq=%d), reference (at=%v seq=%d)",
					round, got.at, got.seq, want.at, want.seq)
			}
			if popped[want.id] {
				t.Fatalf("round %d: event %d popped twice", round, want.id)
			}
			popped[want.id] = true
			if got.at < now {
				t.Fatalf("round %d: time moved backwards: %v -> %v", round, now, got.at)
			}
			now = got.at
			// Schedule follow-up work from a third of the pops, like
			// callbacks that fire signals or re-arm timers.
			if rng.Intn(3) == 0 && nextID < 5000 {
				for k := rng.Intn(3); k >= 0; k-- {
					push()
				}
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("round %d: queue drained but reference holds %d", round, ref.Len())
		}
	}
}

func TestWaitGroupOverCompletionPanics(t *testing.T) {
	e := NewEnv(1)
	wg := e.NewWaitGroup(1)
	wg.Done()
	defer func() {
		if recover() == nil {
			t.Fatal("WaitGroup.Done past zero did not panic")
		}
	}()
	wg.Done()
}

func TestEventsCounter(t *testing.T) {
	e := NewEnv(1)
	for i := 0; i < 5; i++ {
		e.After(Time(i), func() {})
	}
	e.Run()
	if e.Events() != 5 {
		t.Fatalf("Events = %d, want 5", e.Events())
	}
}

// BenchmarkSameInstantCascade measures the callback fast path: chains of
// zero-delay events, the shape of Signal.Fire fan-outs and network egress
// hops.
func BenchmarkSameInstantCascade(b *testing.B) {
	e := NewEnv(1)
	n := 0
	var fire func()
	fire = func() {
		if n < b.N {
			n++
			e.After(0, fire)
		}
	}
	e.After(0, fire)
	e.Run()
	b.ReportMetric(float64(n), "events")
}

// BenchmarkTimedEvents measures heap push/pop throughput with a rotating
// timer population, the shape of sleep-heavy worker workloads.
func BenchmarkTimedEvents(b *testing.B) {
	e := NewEnv(1)
	n := 0
	var rearm func()
	rearm = func() {
		if n < b.N {
			n++
			e.After(Time(1+n%97), rearm)
		}
	}
	for i := 0; i < 64; i++ {
		e.After(Time(i+1), rearm)
	}
	e.Run()
}

// BenchmarkContinuationPingPong measures one blocking simulated operation
// in continuation form: a callback that re-arms itself every 10ns, the
// shape of a worker waiting out a fixed latency.
func BenchmarkContinuationPingPong(b *testing.B) {
	e := NewEnv(1)
	n := 0
	var tick func()
	tick = func() {
		if n < b.N {
			n++
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	e.Run()
}

// TestContinuationCycleZeroAlloc pins the steady-state callback cycle —
// one timed event scheduled, popped and executed — at zero heap
// allocations, the invariant the worker state machines rely on.
func TestContinuationCycleZeroAlloc(t *testing.T) {
	e := NewEnv(1)
	var tick func()
	tick = func() {}
	// Warm the event ring and heap so growth is amortized out.
	for i := 0; i < 1024; i++ {
		e.After(Time(i%7), tick)
	}
	e.Run()
	if avg := testing.AllocsPerRun(1000, func() {
		e.After(3, tick)
		e.Run()
	}); avg != 0 {
		t.Fatalf("continuation cycle allocates %.2f objects/op, want 0", avg)
	}
}
