package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of samples:
// the smallest sample with at least a share q of the samples at or below
// it. With fewer than 100 samples the 0.99 quantile is therefore the
// maximum. samples need not be sorted; an empty slice reads 0.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the midpoint median: the mean of the two middle samples when
// the count is even.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// segmentMedianP99 is the tail estimator: segments holds one slice of
// samples per round, in issue order; each round's nearest-rank p99 is
// taken on its own and the median over rounds is reported. One slow
// round moves one segment's p99, not the estimate, which is why it
// repeats better than a p99 over the pooled samples. Empty rounds are
// skipped.
func segmentMedianP99(segments [][]float64) float64 {
	var tails []float64
	for _, seg := range segments {
		if len(seg) > 0 {
			tails = append(tails, percentile(seg, 0.99))
		}
	}
	return median(tails)
}

// bestQuartile reduces one lower-is-better value per round to the run's:
// the value at the first quartile (nearest rank), so with up to four
// rounds the best one and with eight the second best. On a shared box a
// neighbour can only slow a round down, never speed it up, so the rounds
// of a run scatter upwards from what the program costs; the best quartile
// sits in the undisturbed rounds without resting on a single lucky one.
func bestQuartile(perRound []float64) float64 { return percentile(perRound, 0.25) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// which is what the acceptance rule for a benchmark's spread uses. It
// needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		rem := i*(n+1) - 4*j
		return (sorted[j-1]*float64(4-rem) + sorted[j]*float64(rem)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	m := median(values)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
