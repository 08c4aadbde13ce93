package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: fewer than ten makes the tail a handful of
// outliers, not a percentile.
const minBeyond = 10

// nearestRank returns the p-th percentile (0 < p <= 100) of a sorted
// sample by the nearest-rank rule, and how many samples lie beyond it.
// It reports ok=false on an empty sample.
func nearestRank(sorted []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank, true
}

// percentile is nearestRank plus the minBeyond rule: supported reports
// whether at least minBeyond samples lie beyond the value.
func percentile(sorted []float64, p float64) (v float64, beyond int, supported bool) {
	v, beyond, ok := nearestRank(sorted, p)
	return v, beyond, ok && beyond >= minBeyond
}

// minP99Samples is the smallest sample for which percentile supports
// p99: 1000 samples leave exactly minBeyond above rank 990.
const minP99Samples = 1000

// median returns the median of xs (the mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
