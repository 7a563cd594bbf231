package sim

// Batcher coalesces same-instant, same-destination event deliveries into one
// scheduled event that drains a queue of callbacks in order. The network
// layer keeps one Batcher per destination: N one-way messages scheduled for
// the same arrival instant then cost one heap/ring operation instead of N.
//
// Coalescing is only order-isomorphic — i.e. guaranteed to execute every
// callback in exactly the relative order the unbatched schedule would — when
// nothing else has been scheduled since the open batch was. The Do fast path
// therefore requires all three of:
//
//   - the arrival instant matches the open batch's instant,
//   - the environment's sequence counter still equals the value drawn when
//     the open batch was scheduled (no event of any kind scheduled since, so
//     no event can order between the two deliveries), and
//   - the open batch has not started draining.
//
// When any condition fails, Do schedules a fresh batch, which draws a fresh
// sequence number exactly like an unbatched After would. Coalesced deliveries
// skip their sequence draw entirely; because every later draw shifts down
// uniformly, all relative (at, seq) comparisons — the only thing the
// scheduler ever consults — stay the same, and seeded runs produce the same
// execution order (and digest) with batching on or off. Only the raw executed
// event count differs.
type Batcher struct {
	env  *Env
	cur  *batchq
	free []*batchq
}

// batchEntry is one queued delivery: either a plain callback or an indexed
// callback plus its argument. The indexed form exists for multicast-style
// senders that deliver one shared (pooled) function to many destinations —
// carrying the argument in the entry instead of a capturing closure keeps
// the whole fan-out allocation-free.
type batchEntry struct {
	fn   func()
	idFn func(int)
	id   int
}

// batchq is one in-flight batch: the callbacks to drain at instant at. The
// drain closure is cached so re-arming a recycled batch costs zero
// allocations.
type batchq struct {
	at      Time
	seq     uint64
	fns     []batchEntry
	drained bool
	drainFn func()
}

// NewBatcher returns a Batcher delivering through e.
func NewBatcher(e *Env) *Batcher { return &Batcher{env: e} }

// Do schedules fn to run delay nanoseconds from now, coalescing it into the
// open batch when that is provably order-preserving (see type comment). It
// reports whether the delivery was coalesced into an existing event.
func (b *Batcher) Do(delay Time, fn func()) bool {
	return b.push(delay, batchEntry{fn: fn})
}

// DoIndexed is Do for an indexed callback: fn(id) runs at the delivery
// instant. The id travels in the batch entry, so one pooled fn can serve a
// whole multicast group without any per-destination closure allocation.
func (b *Batcher) DoIndexed(delay Time, fn func(int), id int) bool {
	return b.push(delay, batchEntry{idFn: fn, id: id})
}

// push appends an entry to the open batch, or schedules a fresh one.
func (b *Batcher) push(delay Time, e batchEntry) bool {
	if delay < 0 {
		delay = 0
	}
	at := b.env.now + delay
	if q := b.cur; q != nil && !q.drained && q.at == at && q.seq == b.env.seq {
		q.fns = append(q.fns, e)
		return true
	}
	q := b.take()
	q.at = at
	q.fns = append(q.fns, e)
	b.env.After(delay, q.drainFn)
	q.seq = b.env.seq
	b.cur = q
	return false
}

// take returns a reset batch from the free list, or a fresh one with its
// drain closure pre-built.
func (b *Batcher) take() *batchq {
	if n := len(b.free); n > 0 {
		q := b.free[n-1]
		b.free = b.free[:n-1]
		q.drained = false
		return q
	}
	q := &batchq{}
	q.drainFn = func() { b.drain(q) }
	return q
}

// drain runs a batch's callbacks in arrival order, then recycles the batch.
// The drained flag is set before running any callback: a callback that
// schedules a further delivery must open a new batch, never append to the
// one currently executing.
func (b *Batcher) drain(q *batchq) {
	q.drained = true
	for i := 0; i < len(q.fns); i++ {
		if e := &q.fns[i]; e.idFn != nil {
			e.idFn(e.id)
		} else {
			e.fn()
		}
	}
	for i := range q.fns {
		q.fns[i] = batchEntry{}
	}
	q.fns = q.fns[:0]
	b.free = append(b.free, q)
}
