package telemetry

import (
	"math"
	"sort"
	"testing"

	"ecocapsule/internal/prng"
)

// exactQuantile computes the rank-based quantile of sorted samples the same
// way the histogram estimate defines it: the value at rank ceil(q*n).
func exactQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// containingBucketWidth returns the width of the bucket holding v (the
// interpolation error bound), with the first bucket's lower edge at 0.
func containingBucketWidth(bounds []float64, v float64) float64 {
	lower := 0.0
	for _, ub := range bounds {
		if v <= ub {
			return ub - lower
		}
		lower = ub
	}
	return math.Inf(1) // overflow region is unbounded
}

// TestHistogramQuantileProperty checks, over seeded random sample sets,
// that the interpolated quantile never strays from the exact sample
// quantile by more than the width of the bucket containing it.
func TestHistogramQuantileProperty(t *testing.T) {
	quantiles := []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}
	for seed := int64(0); seed < 20; seed++ {
		rng := prng.New(seed)
		reg := NewRegistry()
		h := reg.Histogram("ecocapsule_telemetry_quantile_prop_seconds", "t", DefBuckets)
		n := 50 + rng.IntN(500)
		samples := make([]float64, n)
		for i := range samples {
			// Log-uniform over the bucketed range so every decade gets hits.
			samples[i] = math.Pow(10, -3+5*rng.Float64())
			h.Observe(samples[i])
		}
		sort.Float64s(samples)
		for _, q := range quantiles {
			got := h.Quantile(q)
			want := exactQuantile(samples, q)
			tol := containingBucketWidth(DefBuckets, want)
			if math.Abs(got-want) > tol {
				t.Errorf("seed %d q=%.2f: estimate %g vs exact %g exceeds bucket width %g",
					seed, q, got, want, tol)
			}
		}
	}
}

// TestHistogramQuantileExactWithinBucket pins the interpolation arithmetic
// on a hand-checkable distribution.
func TestHistogramQuantileExactWithinBucket(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ecocapsule_telemetry_quantile_exact_seconds", "t", []float64{1, 2, 4})
	// 10 samples in (1,2]: ranks spread linearly across the bucket.
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("median of a single bucket = %g, want its midpoint 1.5", got)
	}
	if got := h.Quantile(1.0); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("q=1 = %g, want the bucket's upper bound 2", got)
	}
	if got := h.Quantile(0.0); got < 1.0 || got > 1.1 {
		t.Errorf("q=0 = %g, want the bucket's lower edge", got)
	}
}

// TestHistogramQuantileOverflowBucket pins the overflow-region contract:
// samples beyond the last bound clamp quantile estimates to that bound.
func TestHistogramQuantileOverflowBucket(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ecocapsule_telemetry_quantile_overflow_seconds", "t", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1000) // overflow
	h.Observe(2000) // overflow
	if got := h.Quantile(0.99); got != 2 {
		t.Errorf("overflow quantile = %g, want clamp to last bound 2", got)
	}
	if got := h.Quantile(0.1); got > 1 {
		t.Errorf("low quantile = %g, must stay in the first bucket", got)
	}
	// Sum and Count still see the true magnitudes.
	if h.Count() != 3 || h.Sum() != 3000.5 {
		t.Errorf("count/sum = %d/%g, want 3/3000.5", h.Count(), h.Sum())
	}
}

// TestHistogramQuantileEmptyAndClamp covers the degenerate inputs.
func TestHistogramQuantileEmptyAndClamp(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ecocapsule_telemetry_quantile_empty_seconds", "t", DefBuckets)
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram quantile = %g, want NaN", got)
	}
	if s := h.Summary(); s != (Summary{}) {
		t.Errorf("empty histogram summary = %+v, want zero value", s)
	}
	h.Observe(0.3)
	if got := h.Quantile(-3); math.IsNaN(got) {
		t.Error("q below 0 must clamp, not NaN")
	}
	if got := h.Quantile(7); math.IsNaN(got) {
		t.Error("q above 1 must clamp, not NaN")
	}
}

// TestHistogramSummary checks the digest against direct Quantile calls.
func TestHistogramSummary(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ecocapsule_telemetry_summary_seconds", "t", DefBuckets)
	rng := prng.New(9)
	for i := 0; i < 300; i++ {
		h.Observe(rng.Float64())
	}
	s := h.Summary()
	if s.Count != 300 {
		t.Errorf("count %d, want 300", s.Count)
	}
	if math.Abs(s.Mean-s.Sum/300) > 1e-12 {
		t.Errorf("mean %g inconsistent with sum %g", s.Mean, s.Sum)
	}
	if s.P50 != h.Quantile(0.5) || s.P95 != h.Quantile(0.95) || s.P99 != h.Quantile(0.99) {
		t.Errorf("summary quantiles %+v disagree with Quantile()", s)
	}
	if !(s.P50 <= s.P95 && s.P95 <= s.P99) {
		t.Errorf("quantiles must be monotone: %+v", s)
	}
}
