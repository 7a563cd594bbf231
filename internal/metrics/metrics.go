// Package metrics provides counters, latency histograms and per-component
// time breakdowns for the simulated DBMS. The per-run types (Counters,
// Breakdown, LatencyHist) are plain (non-atomic) because the discrete-event
// simulator runs one event at a time; metric updates are therefore
// race-free by construction, and every run owns its instances — nothing
// here is shared between the concurrent runs of a parallel sweep.
//
// CacheCounters is the one exception: it instruments process-wide caches
// (the offline-detection artifact cache in internal/core) that concurrent
// runs deliberately share, so it is atomic.
package metrics

import (
	"fmt"
	"sync/atomic"

	"repro/internal/sim"
)

// CacheCounters instruments a process-wide cache that concurrent
// simulation runs share: hits, misses, evictions and the live entry
// count. All methods are safe for concurrent use.
type CacheCounters struct {
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	size      atomic.Int64
}

// Hit records one cache hit.
func (c *CacheCounters) Hit() { c.hits.Add(1) }

// Miss records one cache miss.
func (c *CacheCounters) Miss() { c.misses.Add(1) }

// Evict records n entries dropped by the eviction policy.
func (c *CacheCounters) Evict(n int64) {
	c.evictions.Add(n)
	c.size.Add(-n)
}

// Insert records one entry added to the cache.
func (c *CacheCounters) Insert() { c.size.Add(1) }

// Stats returns a snapshot of the counters. The fields are read
// individually, so a snapshot taken while the cache is in use is
// approximate — exact once the cache is quiescent.
func (c *CacheCounters) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Size:      c.size.Load(),
	}
}

// Reset zeroes every counter (tests and repeated sweeps).
func (c *CacheCounters) Reset() {
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.size.Store(0)
}

// CacheStats is a point-in-time snapshot of a CacheCounters.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Size      int64
}

// HitRate returns hits / (hits + misses), or 0 when the cache is unused.
func (s CacheStats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// String formats the snapshot for progress output.
func (s CacheStats) String() string {
	return fmt.Sprintf("%d hits / %d misses (%.0f%% hit rate), %d live, %d evicted",
		s.Hits, s.Misses, 100*s.HitRate(), s.Size, s.Evictions)
}

// Component identifies where transaction time is spent, matching the
// latency breakdown of Figure 18a in the paper.
type Component int

// Breakdown components.
const (
	LockAcquisition Component = iota
	LocalAccess
	RemoteAccess
	SwitchTxn
	TxnEngine
	numComponents
)

// String returns the paper's label for the component.
func (c Component) String() string {
	switch c {
	case LockAcquisition:
		return "Lock Acquisition"
	case LocalAccess:
		return "Local Access"
	case RemoteAccess:
		return "Remote Access"
	case SwitchTxn:
		return "Switch Txn"
	case TxnEngine:
		return "Txn Engine"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// Breakdown accumulates virtual time per component.
type Breakdown struct {
	total [numComponents]sim.Time
	n     int64
}

// Add accrues d to component c.
func (b *Breakdown) Add(c Component, d sim.Time) { b.total[c] += d }

// AddTxn records that one transaction contributed to the breakdown
// (used to compute per-transaction averages).
func (b *Breakdown) AddTxn() { b.n++ }

// Total returns the accumulated time for component c.
func (b *Breakdown) Total(c Component) sim.Time { return b.total[c] }

// PerTxn returns the average time per recorded transaction for c.
func (b *Breakdown) PerTxn(c Component) sim.Time {
	if b.n == 0 {
		return 0
	}
	return b.total[c] / sim.Time(b.n)
}

// Txns returns the number of transactions recorded.
func (b *Breakdown) Txns() int64 { return b.n }

// Components lists all breakdown components in display order.
func Components() []Component {
	return []Component{LockAcquisition, LocalAccess, RemoteAccess, SwitchTxn, TxnEngine}
}

// Merge adds other's totals into b.
func (b *Breakdown) Merge(other *Breakdown) {
	for i := range b.total {
		b.total[i] += other.total[i]
	}
	b.n += other.n
}

// Counters tracks the commit/abort accounting a benchmark run reports.
type Counters struct {
	CommittedHot  int64 // hot transactions committed (on switch or on hot tuples)
	CommittedCold int64 // cold transactions committed
	CommittedWarm int64 // warm transactions committed
	Aborts        int64 // abort events (a transaction may abort several times before committing)
	Recircs       int64 // switch packet recirculations observed by this worker
	MultiPass     int64 // switch transactions that needed more than one pass
	SinglePass    int64 // switch transactions executed in a single pass
}

// Committed returns total committed transactions across classes.
func (c *Counters) Committed() int64 {
	return c.CommittedHot + c.CommittedCold + c.CommittedWarm
}

// Merge adds other into c.
func (c *Counters) Merge(other *Counters) {
	c.CommittedHot += other.CommittedHot
	c.CommittedCold += other.CommittedCold
	c.CommittedWarm += other.CommittedWarm
	c.Aborts += other.Aborts
	c.Recircs += other.Recircs
	c.MultiPass += other.MultiPass
	c.SinglePass += other.SinglePass
}

// AbortRate returns aborts / (aborts + committed), the fraction of
// execution attempts that failed.
func (c *Counters) AbortRate() float64 {
	att := float64(c.Aborts + c.Committed())
	if att == 0 {
		return 0
	}
	return float64(c.Aborts) / att
}
