package dsp

import (
	"math"
	"testing"
)

// TestNoiseSourceAdjacentSeedsIndependent: entities are seeded seed+i, so
// the streams of adjacent seeds must be uncorrelated, and each must be
// N(0, σ²). Over n draws the sample correlation of independent streams has
// standard deviation 1/√n (|r| < 0.02 is above 6σ at n = 1e5); the mean and
// variance are held within 4σ of their sampling distributions.
func TestNoiseSourceAdjacentSeedsIndependent(t *testing.T) {
	const (
		n     = 100000
		sigma = 2.0
	)
	for _, s := range []int64{0, 1, 41, -7, 1 << 40} {
		a, b := NewNoiseSource(s), NewNoiseSource(s+1)
		var sa, sb, saa, sbb, sab float64
		for i := 0; i < n; i++ {
			x, y := a.Gaussian(sigma), b.Gaussian(sigma)
			sa += x
			sb += y
			saa += x * x
			sbb += y * y
			sab += x * y
		}
		ma, mb := sa/n, sb/n
		va, vb := saa/n-ma*ma, sbb/n-mb*mb
		r := (sab/n - ma*mb) / math.Sqrt(va*vb)
		if math.Abs(r) >= 0.02 {
			t.Errorf("seeds %d,%d: Pearson r = %.4f, want |r| < 0.02", s, s+1, r)
		}
		meanTol := 4 * sigma / math.Sqrt(n)
		varTol := 4 * sigma * sigma * math.Sqrt(2.0/(n-1))
		for name, m := range map[string][2]float64{"a": {ma, va}, "b": {mb, vb}} {
			if math.Abs(m[0]) > meanTol {
				t.Errorf("seed %d stream %s: mean %.4f outside ±%.4f", s, name, m[0], meanTol)
			}
			if math.Abs(m[1]-sigma*sigma) > varTol {
				t.Errorf("seed %d stream %s: variance %.4f, want %.1f ± %.4f", s, name, m[1], sigma*sigma, varTol)
			}
		}
	}
}
