package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks. sorted must be ascending and
// non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	if lo < 0 {
		return sorted[0]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// summary is what the benchmark prints beside every reported value: the
// median is the metric, the rest are diagnostics that say how far the
// rounds disagreed.
type summary struct {
	N      int
	Median float64
	IQR    float64
	Min    float64
	Max    float64
}

// summarize computes the median, interquartile range and extremes of
// vals without modifying it. An empty input yields the zero summary.
func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Median: quantile(s, 0.5),
		IQR:    quantile(s, 0.75) - quantile(s, 0.25),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

// percentileNS returns the q-quantile of a latency sample in
// nanoseconds, by nearest rank (the sample value at ceil(q*n)), which
// is what "p99" means when the sample is the population of timed calls.
// lat is sorted in place.
func percentileNS(lat []int64, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, k int) bool { return lat[i] < lat[k] })
	rank := int(math.Ceil(q*float64(len(lat)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(lat) {
		rank = len(lat) - 1
	}
	return float64(lat[rank])
}

// splitEven divides total work items among n workers so that every item
// is assigned exactly once and shares differ by at most one; earlier
// workers take the remainder.
func splitEven(total, n int) []int {
	if n <= 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = total / n
		if i < total%n {
			out[i]++
		}
	}
	return out
}
