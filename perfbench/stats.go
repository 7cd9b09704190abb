package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is the percentile rule's floor: a percentile is reportable
// only when at least this many samples lie beyond it.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of percentile p
// (0 < p <= 100) among n samples.
func rank(p float64, n int) int {
	// The tolerance keeps a percentile computed as 100*k/n on rank k.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(k, 1), n)
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// reportable reports whether percentile p of n samples has at least
// minBeyond samples beyond it.
func reportable(p float64, n int) bool {
	return n > minBeyond && n-rank(p, n) >= minBeyond
}

// tailPercentile returns the highest percentile with at least
// minBeyond samples beyond it, and false when there are too few
// samples for any.
func tailPercentile(n int) (float64, bool) {
	if n <= minBeyond {
		return 0, false
	}
	return 100 * float64(n-minBeyond) / float64(n), true
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// durMedian is median over durations, in seconds.
func durMedian(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
