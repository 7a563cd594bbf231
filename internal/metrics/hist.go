package metrics

import (
	"math/bits"

	"repro/internal/sim"
)

// LatencyHist is a fixed-bucket latency histogram: log-spaced buckets with
// latHistSub linear sub-buckets per octave (relative bucket width 1/latHistSub,
// so percentile error is bounded at ~3%), plus exact count, sum, and max.
// Record is a couple of shifts and two adds — no allocation, no lock — so it
// is safe on the serving hot path (one histogram per connection, merged at
// report time) and cheap enough for the sim's per-commit accounting.
//
// Mean is exact (sum/count with the same integer division as the
// sample-keeping Histogram oracle in hist_test.go), which keeps
// bench.Digest's MeanLatUs column bit-identical; Percentile is bucketed and
// therefore excluded from digests — print-only.
type LatencyHist struct {
	n      int64
	sum    sim.Time
	max    sim.Time
	counts [latHistBuckets]int64
}

const (
	// latHistSubBits sizes the linear sub-buckets per octave: 2^5 = 32
	// sub-buckets, values below 32ns are exact.
	latHistSubBits = 5
	latHistSub     = 1 << latHistSubBits
	// latHistBuckets covers the full non-negative int64 range: octaves
	// latHistSubBits+1..64 after the exact region.
	latHistBuckets = (64 - latHistSubBits) * latHistSub
)

// latBucket maps a non-negative value to its bucket index.
func latBucket(v sim.Time) int {
	u := uint64(v)
	if u < latHistSub {
		return int(u)
	}
	e := bits.Len64(u) // >= latHistSubBits+1
	return (e-latHistSubBits)<<latHistSubBits + int((u>>(e-1-latHistSubBits))&(latHistSub-1))
}

// latBucketMax returns the largest value mapping to bucket idx.
func latBucketMax(idx int) sim.Time {
	if idx < latHistSub {
		return sim.Time(idx)
	}
	e := idx>>latHistSubBits + latHistSubBits
	width := sim.Time(1) << (e - 1 - latHistSubBits)
	base := sim.Time(1) << (e - 1)
	return base + sim.Time(idx&(latHistSub-1)+1)*width - 1
}

// Record adds one sample. Negative samples clamp to zero.
func (h *LatencyHist) Record(v sim.Time) {
	if v < 0 {
		v = 0
	}
	h.counts[latBucket(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *LatencyHist) Count() int64 { return h.n }

// Sum returns the exact sum of all recorded samples.
func (h *LatencyHist) Sum() sim.Time { return h.sum }

// Mean returns the exact average sample, or 0 when empty.
func (h *LatencyHist) Mean() sim.Time {
	if h.n == 0 {
		return 0
	}
	return h.sum / sim.Time(h.n)
}

// Max returns the exact largest sample, or 0 when empty.
func (h *LatencyHist) Max() sim.Time { return h.max }

// Percentile returns an upper bound on the p-th percentile (0 < p <= 100):
// the upper edge of the bucket holding the rank-p sample, clamped to the
// exact max. Within ~3% of the true value by construction.
func (h *LatencyHist) Percentile(p float64) sim.Time {
	if h.n == 0 {
		return 0
	}
	rank := int64(p / 100 * float64(h.n))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i]
		if seen >= rank {
			if b := latBucketMax(i); b < h.max {
				return b
			}
			return h.max
		}
	}
	return h.max
}

// Merge adds other's samples into h.
func (h *LatencyHist) Merge(other *LatencyHist) {
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.n += other.n
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset zeroes the histogram for reuse.
func (h *LatencyHist) Reset() {
	*h = LatencyHist{}
}
