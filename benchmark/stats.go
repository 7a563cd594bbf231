package main

import (
	"math"
	"slices"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// quartiles returns the three cut points of vals exactly as Python's
// statistics.quantiles(vals, n=4) (the default "exclusive" method) does, so
// the spreads this package prints are the ones the acceptance driver
// computes. Fewer than two values collapse to that value (or zero).
func quartiles(vals []float64) (q1, q2, q3 float64) {
	switch len(vals) {
	case 0:
		return 0, 0, 0
	case 1:
		return vals[0], vals[0], vals[0]
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Host-time estimators. Interference on a shared machine only ever slows a
// round, so a rate reports the upper quartile of its per-round samples and a
// duration the lower quartile; the median and the interquartile distance
// are printed beside them. A quartile, unlike an extreme, does not drift
// with the number of samples and still pays for whatever most rounds pay
// for (the garbage collector, a periodic flush).

// upperQuartile is the estimator for per-round rates.
func upperQuartile(rates []float64) float64 {
	_, _, q3 := quartiles(rates)
	return q3
}

// lowerQuartile is the estimator for per-round durations.
func lowerQuartile(durations []float64) float64 {
	q1, _, _ := quartiles(durations)
	return q1
}

func median(vals []float64) float64 {
	_, q2, _ := quartiles(vals)
	return q2
}

// iqrFrac is the interquartile distance as a share of the median — the
// spread statistic of the acceptance rule.
func iqrFrac(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentile estimates the p-th percentile of h, in nanoseconds, finer than
// the histogram's buckets and through its public accessor alone.
// LatencyHist.Percentile answers with the upper edge of the bucket holding
// rank p, which reads the same until a whole bucket (3 % of the value)
// flips. Bisecting its argument gives the share of samples below that
// bucket and the share up to its edge; the estimate sits between the
// bucket's two ends in proportion to where p falls between the two shares.
// The lower end is the edge of the occupied bucket before it or, when that
// one is further away than a bucket is wide (1/32 of the value, the
// histogram's documented resolution), that far below the edge.
func percentile(h *metrics.LatencyHist, p float64) float64 {
	edge := h.Percentile(p)
	// below returns the largest share q, in percent, with Percentile(q) < v,
	// and that percentile (0 when no sample is below v).
	below := func(v sim.Time) (q float64, at sim.Time) {
		a, b := 0.0, 100.0
		for b-a > 1e-9 {
			m := (a + b) / 2
			if x := h.Percentile(m); x < v {
				a, at = m, x
			} else {
				b = m
			}
		}
		return a, at
	}
	lo, prev := below(edge)
	hi, _ := below(edge + 1)
	if hi <= lo {
		return float64(edge)
	}
	top := float64(edge)
	bottom := max(float64(prev), top*(1-1.0/32))
	return bottom + (top-bottom)*min(max((p-lo)/(hi-lo), 0), 1)
}
