package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[99-i] = float64(i + 1) // unsorted on purpose
	}
	cases := []struct {
		samples []float64
		q, want float64
	}{
		{hundred, 0.99, 99},
		{hundred, 0.50, 50},
		{hundred, 1, 100},
		{hundred[:50], 0.99, 100}, // fewer than 100 samples: the maximum
		{[]float64{7}, 0.5, 7},
		{nil, 0.99, 0},
	}
	for _, c := range cases {
		if got := percentile(c.samples, c.q); got != c.want {
			t.Errorf("percentile(%d samples, %g) = %g, want %g", len(c.samples), c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
}

func TestSegmentMedianIgnoresOneSlowRound(t *testing.T) {
	quiet := func() []float64 {
		seg := make([]float64, 200)
		for i := range seg {
			seg[i] = 1 + float64(i)/1000
		}
		return seg
	}
	slow := quiet()
	for i := 150; i < 200; i++ {
		slow[i] = 50 // a quarter of one round stalls
	}
	segs := [][]float64{quiet(), slow, quiet(), nil}
	if got, want := segmentMedianP99(segs), percentile(quiet(), 0.99); got != want {
		t.Errorf("segment-median p99 = %g, want the quiet rounds' %g", got, want)
	}
	var all []float64
	for _, seg := range segs {
		all = append(all, seg...)
	}
	if got := percentile(all, 0.99); got != 50 {
		t.Errorf("pooled p99 = %g, want 50: the estimator under test exists because this one moves", got)
	}
}

func TestBestQuartile(t *testing.T) {
	cases := []struct {
		rounds []float64
		want   float64
	}{
		{[]float64{5}, 5},
		{[]float64{9, 4, 7, 6}, 4},              // up to four rounds: the best
		{[]float64{9, 4, 7, 6, 5, 8, 3, 10}, 4}, // eight: the second best
	}
	for _, c := range cases {
		if got := bestQuartile(c.rounds); got != c.want {
			t.Errorf("bestQuartile(%v) = %g, want %g", c.rounds, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(v), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want %g", got, want)
	}
	q1, q3 = quartiles([]float64{3, 1, 2}) // python: [1.0, 2.0, 3.0]
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %g, %g, want 1, 3", q1, q3)
	}
}
