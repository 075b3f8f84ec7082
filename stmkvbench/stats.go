package main

import (
	"math"
	"sort"
)

// missed is the latency recorded for a request that failed, was refused,
// timed out or was lost: ten seconds, which misses any latency limit the
// workloads set while keeping every percentile a finite number.
const missed = int64(10e9)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest value with at least q of the samples at or below it.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond reports how many samples lie strictly above the q-quantile's rank,
// the count the q-quantile rests on.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// sortedCopy returns the samples in ascending order without touching xs.
func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// medianFloat returns the median of xs (the mean of the middle two for an
// even count).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowerQuartile is the first quartile of xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method); with fewer than
// two values it is the median.
func lowerQuartile(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return medianFloat(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := float64(n+1) / 4 // 1-based
	j := int(pos)
	if j < 1 {
		return s[0]
	}
	if j >= n {
		return s[n-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

// latencySummary is one phase's latency distribution in microseconds. A
// missed request sorts above every measured one, so P99 reads ten seconds
// whenever more than 1% of requests failed.
type latencySummary struct {
	Samples int     `json:"samples"`
	Failed  int     `json:"failed"`
	P50us   float64 `json:"p50_us"`
	P99us   float64 `json:"p99_us"`
	P999us  float64 `json:"p999_us"`
	Maxus   float64 `json:"max_us"`
	// Beyond99 is how many samples lie above the p99 rank.
	Beyond99 int `json:"beyond_p99"`
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

func summarize(lat []int64) latencySummary {
	s := sortedCopy(lat)
	failed := 0
	for i := len(s) - 1; i >= 0 && s[i] >= missed; i-- {
		failed++
	}
	out := latencySummary{Samples: len(s), Failed: failed, Beyond99: beyond(len(s), 0.99)}
	if len(s) > 0 {
		out.P50us = usOf(percentile(s, 0.50))
		out.P99us = usOf(percentile(s, 0.99))
		out.P999us = usOf(percentile(s, 0.999))
		out.Maxus = usOf(s[len(s)-1])
	}
	return out
}
