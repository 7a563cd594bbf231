package core

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"repro/internal/hotset"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/store"
)

// The offline preparation step (hot-tuple detection + declustered layout)
// is a pure function of the workload sample and a handful of switch
// parameters, and every point of a figure sweep would re-derive it while
// only the worker count or the engine changed. This cache keys the
// finished artifacts by a content hash of the sample plus every other
// input, so a sweep computes each distinct preparation once; a hit still
// pays for drawing the sample and hashing it. The artifacts (hot-label
// set, layout, index) are immutable, shared read-only across clusters and
// bit-identical to a fresh computation. They are copies: an entry never
// references the sample or the HotSet it came from (tens of MB per
// build) — TestDetectCacheHoldsNoSample pins that.
//
// The cache is built for the parallel sweep runner:
//
//   - It is sharded by the first key byte, so concurrent cluster builds
//     touching different preparations never contend on one lock.
//   - A miss installs an in-flight entry before computing (singleflight):
//     when a parallel sweep launches many points that share one
//     preparation, the first computes it and the rest wait on it instead
//     of burning a core each on identical work.
//   - It is bounded by a two-generation sweep: each shard keeps a current
//     and a previous map; when the current map reaches its cap it becomes
//     the previous one (whose entries are evicted wholesale on the next
//     rotation). Entries hit in the old generation are promoted, so a
//     long matrix run keeps its working set while retired preparations
//     age out — the cache can never grow without limit.
//   - Hit/miss/eviction/size counters (metrics.CacheCounters) are exposed
//     through DetectCacheStats for harness visibility.

// detectArtifacts is one cached preparation result.
type detectArtifacts struct {
	hotLabel map[store.GlobalKey]bool
	layout   *layout.Layout
	hotIdx   *hotset.Index
}

const (
	detectShards   = 16 // power of two; shard = first key byte & mask
	detectShardCap = 32 // per-shard per-generation entries (512 total, 1024 with the old generation)
)

// detectEntry is one cache slot. ready is closed once art is set; waiters
// observing an open channel block on the in-flight computation instead of
// recomputing.
type detectEntry struct {
	ready chan struct{}
	art   *detectArtifacts
}

type detectShard struct {
	mu   sync.Mutex
	cur  map[[32]byte]*detectEntry
	prev map[[32]byte]*detectEntry
}

var (
	detectCache [detectShards]detectShard
	detectStats metrics.CacheCounters
)

// DetectCacheStats snapshots the detection-cache counters: how many
// cluster builds reused a cached preparation vs computed one, and how many
// entries the generation sweep has evicted.
func DetectCacheStats() metrics.CacheStats { return detectStats.Stats() }

// ResetDetectCacheStats zeroes the counters (tests and repeated sweeps).
// The cached entries themselves are kept — only the accounting resets.
func ResetDetectCacheStats() { detectStats.Reset() }

// detectKey hashes every input the preparation step depends on: the capacity
// cap, the switch geometry, the seed (the random-layout RNG derives from
// it), the layout mode, the pinned keys and the whole sample. SHA-256 makes
// an accidental collision practically impossible, so a cache hit is as
// trustworthy as recomputing. The key never leaves the process.
func detectKey(cfg Config, sample *hotset.Sample, capRows int) [32]byte {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w64(cfg.Seed)
	w64(uint64(capRows))
	w64(uint64(cfg.Switch.Stages))
	w64(uint64(cfg.Switch.ArraysPerStage))
	w64(uint64(cfg.Switch.SlotsPerArray))
	if cfg.RandomLayout {
		w64(1)
	} else {
		w64(0)
	}
	w64(uint64(len(cfg.ExplicitHot)))
	for _, k := range cfg.ExplicitHot {
		w64(uint64(k))
	}
	sample.HashInto(h) // the bulk: fed from the arena in large blocks
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// getDetect returns the artifacts for key, computing them with compute on
// a miss. Concurrent callers with the same key share one computation.
func getDetect(key [32]byte, compute func() *detectArtifacts) *detectArtifacts {
	s := &detectCache[key[0]&(detectShards-1)]
	s.mu.Lock()
	if e, ok := s.cur[key]; ok {
		s.mu.Unlock()
		return awaitDetect(e, compute)
	}
	if e, ok := s.prev[key]; ok {
		// Old-generation hit: promote so the working set survives the
		// next rotation. The promotion may push the current map slightly
		// past its cap; the next miss rotates and restores the bound.
		delete(s.prev, key)
		if s.cur == nil {
			s.cur = make(map[[32]byte]*detectEntry, detectShardCap)
		}
		s.cur[key] = e
		s.mu.Unlock()
		return awaitDetect(e, compute)
	}
	// Miss: install an in-flight entry before computing so concurrent
	// builders of the same preparation wait instead of duplicating it.
	e := &detectEntry{ready: make(chan struct{})}
	if len(s.cur) >= detectShardCap {
		detectStats.Evict(int64(len(s.prev)))
		s.prev = s.cur
		s.cur = nil
	}
	if s.cur == nil {
		s.cur = make(map[[32]byte]*detectEntry, detectShardCap)
	}
	s.cur[key] = e
	s.mu.Unlock()
	detectStats.Miss()
	detectStats.Insert()

	// If compute panics (a mis-configured cluster build), drop the entry
	// so waiters and later callers recompute rather than deadlock on a
	// ready channel that never closes.
	completed := false
	defer func() {
		if !completed {
			s.mu.Lock()
			if s.cur[key] == e {
				delete(s.cur, key)
				detectStats.Evict(1)
			} else if s.prev[key] == e {
				delete(s.prev, key)
				detectStats.Evict(1)
			}
			s.mu.Unlock()
			close(e.ready)
		}
	}()
	e.art = compute()
	completed = true
	close(e.ready)
	return e.art
}

// awaitDetect blocks until the entry's computation finishes. A nil result
// means the computing goroutine panicked; fall back to computing locally.
func awaitDetect(e *detectEntry, compute func() *detectArtifacts) *detectArtifacts {
	<-e.ready
	if e.art == nil {
		return compute()
	}
	detectStats.Hit()
	return e.art
}
