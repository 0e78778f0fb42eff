package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail figure resting on fewer is an anecdote, not a
// percentile.
const minBeyond = 10

// percentile returns the nearest-rank percentile of xs at perMille/1000
// (500 is the median, 990 is p99) and whether at least minBeyond samples
// lie strictly above its rank. xs is sorted in place. The rank is
// ceil(perMille·n/1000), computed in integers so p90 of 100 samples is
// exactly the 90th.
func percentile(xs []float64, perMille int) (float64, bool) {
	n := len(xs)
	if n == 0 || perMille <= 0 || perMille >= 1000 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := (perMille*n + 999) / 1000
	return xs[rank-1], n-rank >= minBeyond
}

// minSamples is the smallest sample count whose perMille percentile
// satisfies the minBeyond rule.
func minSamples(perMille int) int {
	for n := 1; ; n++ {
		if n-(perMille*n+999)/1000 >= minBeyond {
			return n
		}
	}
}

// median returns the middle of xs (the mean of the middle two for an even
// count) without reordering the caller's slice.
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

// mean returns the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, 0 when den is 0: per-layer shares of a layer the
// workload never reaches read 0 rather than NaN (JSON has no NaN).
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(num) || math.IsNaN(den) {
		return 0
	}
	return num / den
}
