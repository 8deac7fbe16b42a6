package main

import (
	"math"
	"sort"
)

// tailGrid is the percentile ladder the tail rule climbs. Coarse on
// purpose: a run's sample count has to move a long way (p98 holds from
// 500 to 1999 samples, p75 from 40 to 99) before the reported percentile
// changes, so two runs of one workload report the same percentile.
var tailGrid = []float64{50, 75, 90, 95, 98, 99.5, 99.9}

// minBeyond is how many samples must lie above a reported tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted and the
// number of samples strictly beyond its rank. sorted must be ascending
// and non-empty.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tail applies the tail rule: the highest grid percentile with at least
// minBeyond samples beyond it. With too few samples for even the median
// to qualify it reports the median and ok=false; with none, zeros.
func tail(samples []float64) (p, value float64, beyond int, ok bool) {
	if len(samples) == 0 {
		return 0, 0, 0, false
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for i := len(tailGrid) - 1; i >= 0; i-- {
		v, b := percentile(sorted, tailGrid[i])
		if b >= minBeyond {
			return tailGrid[i], v, b, true
		}
	}
	v, b := percentile(sorted, 50)
	return 50, v, b, false
}

// median returns the nearest-rank median (0 for no samples).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	v, _ := percentile(sorted, 50)
	return v
}

// mean returns the arithmetic mean (0 for no samples).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// sumOf returns the sum of samples.
func sumOf(samples []float64) float64 {
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s
}

// movingMean returns, for each sample, the mean of the samples within
// radius of it (fewer at the ends).
func movingMean(samples []float64, radius int) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = mean(samples[max(0, i-radius):min(len(samples), i+radius+1)])
	}
	return out
}
