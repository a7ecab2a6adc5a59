package main

import (
	"math"
	"sort"
	"time"
)

// Metric is one reported number. N is the sample count behind it: the
// operations a percentile ranks, or the runs a median is taken over.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Spread is the interquartile range as a share of the median, present
	// when the value is a median over several runs.
	Spread float64 `json:"spread,omitempty"`
	// LowSamples marks a percentile with fewer than ten samples beyond it;
	// -compare reports such a metric as unresolved.
	LowSamples bool `json:"low_samples,omitempty"`
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// trusted.
const minBeyond = 10

// percentile returns the nearest-rank p'th percentile of an ascending
// sample — the smallest value with at least p% of the sample at or below
// it — and how many samples lie strictly beyond that rank.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1], len(sorted) - rank
}

// percentileMetric reports a latency percentile in milliseconds.
func percentileMetric(sortedMS []float64, p float64) Metric {
	v, beyond := percentile(sortedMS, p)
	return Metric{Value: v, Unit: "ms", N: len(sortedMS), LowSamples: beyond < minBeyond}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// median is the conventional median (mean of the middle pair for an even
// count), used for run-to-run aggregation.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile by the rule of Python's
// statistics.quantiles(values, n=4) (exclusive method), which is the rule
// the repeatability criterion is stated in. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	at := func(k int) float64 { // k'th of 4 cut points
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median; zero when
// fewer than two values exist or the median is zero.
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(m)
}
