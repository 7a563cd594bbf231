package sim

// This file implements the scheduler's event storage: a hand-rolled 4-ary
// min-heap over inline event values for timed events, plus a FIFO ring for
// same-instant events (the callback fast path). Both structures hold event
// values directly — no interface{} boxing, no per-event allocation — and
// both reuse their backing arrays across pushes and pops, so a steady-state
// simulation run does not allocate per event at all.
//
// Ordering contract (shared with the old container/heap implementation):
// events execute in ascending (at, seq) order. seq is a global monotonic
// counter drawn at schedule time, so events at the same virtual instant run
// in FIFO schedule order.

// event is a single entry in the scheduler's event queue: a callback and
// the (at, seq) key it runs at.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	fn  func()
}

// before reports whether e orders strictly before o on the (at, seq) key.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a 4-ary min-heap of inline events ordered by (at, seq).
// A 4-ary layout halves the tree depth of a binary heap, trading a few
// extra comparisons per level for far fewer cache lines touched per
// operation — the classic d-ary heap trade that wins when pops dominate.
type eventHeap struct {
	a []event
}

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) push(ev event) {
	h.a = append(h.a, ev)
	// Sift up.
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.a[i].before(&h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

// pop removes and returns the minimum event. It must not be called on an
// empty heap.
func (h *eventHeap) pop() event {
	top := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a[n] = event{} // release the fn reference, keep capacity
	h.a = h.a[:n]
	// Sift down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.a[c].before(&h.a[min]) {
				min = c
			}
		}
		if !h.a[min].before(&h.a[i]) {
			break
		}
		h.a[i], h.a[min] = h.a[min], h.a[i]
		i = min
	}
	return top
}

// eventRing is a growable FIFO ring buffer of events. The scheduler routes
// zero-delay events here: they are already in (at, seq) order by
// construction (at is the non-decreasing current time, seq is monotonic),
// so same-instant cascades — Signal.Fire wake-ups, After(0, ...) chains,
// network egress/delivery callbacks — cost O(1) push/pop instead of a heap
// round trip.
type eventRing struct {
	buf  []event // len(buf) is a power of two
	head int     // index of the oldest entry
	n    int     // number of entries
}

func (r *eventRing) len() int { return r.n }

// peek returns the oldest entry; it must not be called on an empty ring.
func (r *eventRing) peek() *event { return &r.buf[r.head] }

func (r *eventRing) push(ev event) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = ev
	r.n++
}

// pop removes and returns the oldest entry; it must not be called on an
// empty ring.
func (r *eventRing) pop() event {
	ev := r.buf[r.head]
	r.buf[r.head] = event{} // release the fn reference
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return ev
}

func (r *eventRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 64
	}
	buf := make([]event, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// eventQueue combines the heap and the ring behind one (at, seq)-ordered
// pop interface.
type eventQueue struct {
	heap eventHeap
	ring eventRing
}

func (q *eventQueue) len() int { return q.heap.len() + q.ring.len() }

// pushTimed enqueues an event with a future timestamp.
func (q *eventQueue) pushTimed(ev event) { q.heap.push(ev) }

// pushNow enqueues a same-instant event on the fast path. The caller
// guarantees ev.at is the current virtual time and ev.seq is a fresh draw,
// which keeps the ring (at, seq)-sorted: at is non-decreasing across pushes
// and seq is globally monotonic.
func (q *eventQueue) pushNow(ev event) { q.ring.push(ev) }

// peekAt returns the timestamp of the next event, or false when empty.
func (q *eventQueue) peekAt() (Time, bool) {
	switch {
	case q.ring.len() == 0 && q.heap.len() == 0:
		return 0, false
	case q.ring.len() == 0:
		return q.heap.a[0].at, true
	case q.heap.len() == 0:
		return q.ring.peek().at, true
	default:
		if q.ring.peek().before(&q.heap.a[0]) {
			return q.ring.peek().at, true
		}
		return q.heap.a[0].at, true
	}
}

// pop removes and returns the globally next event by (at, seq); it must not
// be called on an empty queue. A ring entry can never tie with a heap entry
// (seq values are unique), so the strict comparison is enough.
func (q *eventQueue) pop() event {
	switch {
	case q.ring.len() == 0:
		return q.heap.pop()
	case q.heap.len() == 0:
		return q.ring.pop()
	default:
		if q.ring.peek().before(&q.heap.a[0]) {
			return q.ring.pop()
		}
		return q.heap.pop()
	}
}
