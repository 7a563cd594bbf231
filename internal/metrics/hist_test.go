package metrics

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
)

// Histogram is the exact oracle for LatencyHist: it keeps every sim.Time
// sample verbatim and reports count, mean and percentiles from them.
type Histogram struct {
	samples []sim.Time
	sum     sim.Time
	sorted  bool
}

// Record adds one sample.
func (h *Histogram) Record(v sim.Time) {
	h.samples = append(h.samples, v)
	h.sum += v
	h.sorted = false
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Mean returns the average sample, or 0 when empty.
func (h *Histogram) Mean() sim.Time {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / sim.Time(len(h.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100), or 0 when empty.
func (h *Histogram) Percentile(p float64) sim.Time {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	idx := int(p/100*float64(len(h.samples))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// Max returns the largest sample, or 0 when empty.
func (h *Histogram) Max() sim.Time { return h.Percentile(100) }

// Merge appends other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	h.samples = append(h.samples, other.samples...)
	h.sum += other.sum
	h.sorted = false
}

// TestLatencyHistExactSmall: values below the sub-bucket width are exact —
// percentiles match the sample-keeping Histogram bit for bit.
func TestLatencyHistExactSmall(t *testing.T) {
	var h LatencyHist
	for v := sim.Time(0); v < 32; v++ {
		h.Record(v)
	}
	if h.Count() != 32 {
		t.Fatalf("count = %d, want 32", h.Count())
	}
	if got := h.Percentile(50); got != 15 {
		t.Fatalf("p50 = %d, want 15", got)
	}
	if got := h.Percentile(100); got != 31 {
		t.Fatalf("p100 = %d, want 31", got)
	}
	if got := h.Max(); got != 31 {
		t.Fatalf("max = %d, want 31", got)
	}
}

// TestLatencyHistMeanMatchesHistogram: Mean must be bit-identical to the
// exact Histogram (same integer sum/count division) — bench.Digest hashes
// MeanLatUs, so this is the golden-digest safety property.
func TestLatencyHistMeanMatchesHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var exact Histogram
	var h LatencyHist
	for i := 0; i < 10000; i++ {
		v := sim.Time(rng.Int63n(50 * int64(sim.Millisecond)))
		exact.Record(v)
		h.Record(v)
	}
	if h.Mean() != exact.Mean() {
		t.Fatalf("Mean diverged: LatencyHist %d vs Histogram %d", h.Mean(), exact.Mean())
	}
	if h.Max() != exact.Max() {
		t.Fatalf("Max diverged: %d vs %d", h.Max(), exact.Max())
	}
	if h.Count() != int64(exact.Count()) {
		t.Fatalf("Count diverged: %d vs %d", h.Count(), exact.Count())
	}
}

// TestLatencyHistPercentileBound: bucketed percentiles are upper bounds
// within one sub-bucket width (1/32 relative) of the exact percentile.
func TestLatencyHistPercentileBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h LatencyHist
	samples := make([]sim.Time, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Mix of octaves: microseconds to tens of milliseconds.
		v := sim.Time(rng.Int63n(int64(sim.Microsecond) << uint(rng.Intn(15))))
		samples = append(samples, v)
		h.Record(v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{50, 90, 95, 99, 99.9, 100} {
		idx := int(p/100*float64(len(samples))) - 1
		if idx < 0 {
			idx = 0
		}
		want := samples[idx]
		got := h.Percentile(p)
		if got < want {
			t.Fatalf("p%g = %d below exact %d: percentile must be an upper bound", p, got, want)
		}
		// Upper bucket edge is within 1/32 relative of the sample it covers.
		if limit := want + want/latHistSub + 1; got > limit {
			t.Fatalf("p%g = %d exceeds %d (exact %d + bucket width)", p, got, limit, want)
		}
	}
}

// TestLatencyHistMerge: merged histogram equals one built from the union.
func TestLatencyHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a, b, union LatencyHist
	for i := 0; i < 5000; i++ {
		v := sim.Time(rng.Int63n(int64(sim.Millisecond)))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		union.Record(v)
	}
	a.Merge(&b)
	if a.Count() != union.Count() || a.Sum() != union.Sum() || a.Max() != union.Max() {
		t.Fatalf("merge mismatch: count %d/%d sum %d/%d max %d/%d",
			a.Count(), union.Count(), a.Sum(), union.Sum(), a.Max(), union.Max())
	}
	for _, p := range []float64{50, 95, 99} {
		if a.Percentile(p) != union.Percentile(p) {
			t.Fatalf("p%g mismatch after merge: %d vs %d", p, a.Percentile(p), union.Percentile(p))
		}
	}
}

// TestLatencyHistEmptyAndReset: zero-value behavior and reuse.
func TestLatencyHistEmptyAndReset(t *testing.T) {
	var h LatencyHist
	if h.Mean() != 0 || h.Percentile(99) != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(100)
	h.Record(-5) // clamps to 0
	if h.Count() != 2 || h.Sum() != 100 {
		t.Fatalf("count %d sum %d after clamp, want 2/100", h.Count(), h.Sum())
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset must zero the histogram")
	}
}

// TestLatencyHistBucketMonotone: bucket mapping is monotone and the
// reported upper edge always covers the value, across every octave
// including the extremes of the int64 range.
func TestLatencyHistBucketMonotone(t *testing.T) {
	prev := -1
	for shift := 0; shift < 63; shift++ {
		for _, off := range []int64{0, 1} {
			v := sim.Time(int64(1)<<uint(shift) + off)
			if v < 0 {
				continue
			}
			b := latBucket(v)
			if b < prev {
				t.Fatalf("bucket not monotone at %d: %d < %d", v, b, prev)
			}
			prev = b
			if edge := latBucketMax(b); edge < v {
				t.Fatalf("bucket edge %d below value %d", edge, v)
			}
		}
	}
}

// TestLatencyHistRecordAllocs: the record path must not allocate.
func TestLatencyHistRecordAllocs(t *testing.T) {
	var h LatencyHist
	v := sim.Time(12345)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v += 977
	}); n != 0 {
		t.Fatalf("Record allocates %v times per op, want 0", n)
	}
}
