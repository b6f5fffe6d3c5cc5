package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer than ten samples moves with single outliers.
const minBeyond = 10

// percentileLadder is the set of percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 99, 99.9}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples.
func rank(p float64, n int) int {
	// The epsilon keeps p·n/100 that is whole in exact arithmetic (99.9 %
	// of 10,000) from rounding up past it.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// beyond counts the samples that lie above the p-th percentile of n.
func beyond(p float64, n int) int { return n - rank(p, n) }

// tailPercentile is the highest percentile of the ladder with at least
// minBeyond samples above it, or 0 when n supports none.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if beyond(p, n) >= minBeyond {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of xs (unsorted input
// is copied, not reordered).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
