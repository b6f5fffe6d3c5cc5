package main

import (
	"math"
	"testing"
)

// TestTailPercentile pins the reporting rule: the highest percentile of the
// ladder with at least ten samples above it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, p, beyond(p, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

// TestWindows: a run is cut into contiguous windows of at least the given
// size, as many as fit, covering every operation in order.
func TestWindows(t *testing.T) {
	for _, c := range []struct{ n, size, windows int }{
		{5, 20, 1}, {20, 20, 1}, {39, 20, 1}, {40, 20, 2}, {810, 20, 40},
	} {
		ws := windows(c.n, c.size)
		if len(ws) != c.windows {
			t.Errorf("n=%d size %d: %d windows, want %d", c.n, c.size, len(ws), c.windows)
		}
		next := 0
		for _, w := range ws {
			if w.lo != next {
				t.Fatalf("n=%d: window starts at %d, want %d", c.n, w.lo, next)
			}
			if c.n >= c.size && w.hi-w.lo < c.size {
				t.Errorf("n=%d: a window of %d, under %d", c.n, w.hi-w.lo, c.size)
			}
			next = w.hi
		}
		if next != c.n {
			t.Errorf("n=%d: windows end at %d", c.n, next)
		}
	}
}

// TestSetTimingWholeRun: without steal, p50 and p90 are the run's own and
// throughput is the work over the time spent.
func TestSetTimingWholeRun(t *testing.T) {
	var lat, done []float64
	for i := 0; i < 200; i++ {
		lat = append(lat, float64(i%100+1))
		done = append(done, 2)
	}
	ticks := make([]cpuTicks, len(lat)+1) // no steal
	res := newResult()
	if err := setTiming(res, "t", lat, done, ticks); err != nil {
		t.Fatal(err)
	}
	m := res.metrics
	if m["latency_ms_p50"].v != 50 || m["latency_ms_p90"].v != 90 || m["latency_ms_p50"].n != 200 {
		t.Errorf("p50 %v p90 %v, want 50 and 90 over 200 operations", m["latency_ms_p50"], m["latency_ms_p90"])
	}
	if got, want := m["throughput_per_s"].v, 1e3*2/50.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("throughput %g, want %g", got, want)
	}
	if err := setTiming(newResult(), "t", lat[:99], done[:99], ticks[:100]); err == nil {
		t.Error("99 operations must be refused: they support no p90")
	}
}

// TestSetTimingNetOfSteal: a window's latencies lose the share of the CPU
// time the hypervisor stole during it, and only that window's.
func TestSetTimingNetOfSteal(t *testing.T) {
	lat := make([]float64, 200)
	done := make([]float64, 200)
	ticks := make([]cpuTicks, 201)
	for i := range lat {
		lat[i], done[i] = 10, 1
		ticks[i+1] = ticks[i]
		if i < 100 {
			// The first half of the run ran 40 ms per operation of 10, of
			// which the hypervisor stole 3 ticks in 4: net, 10 ms.
			lat[i] = 40
			ticks[i+1].busy += 1
			ticks[i+1].steal += 3
		} else {
			ticks[i+1].busy += 4
		}
	}
	res := newResult()
	if err := setTiming(res, "t", lat, done, ticks); err != nil {
		t.Fatal(err)
	}
	m := res.metrics
	if m["latency_ms_p50"].v != 10 || m["latency_ms_p90"].v != 10 || m["throughput_per_s"].v != 100 {
		t.Errorf("p50 %v p90 %v throughput %v, want 10, 10 and 100", m["latency_ms_p50"], m["latency_ms_p90"], m["throughput_per_s"])
	}
	if got := stealShare(ticks[0], ticks[100]); got != 0.75 {
		t.Errorf("steal share of the first half %g, want 0.75", got)
	}
	if got := stealShare(ticks[100], ticks[0]); got != 0 {
		t.Errorf("steal share of a backwards interval %g, want 0", got)
	}
}
