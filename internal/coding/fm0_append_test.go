package coding

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestFM0DecodeMLAppendMatchesML checks the pooled append decoder against
// FM0DecodeML byte for byte over seeded noisy inputs, including appending
// after existing content.
func TestFM0DecodeMLAppendMatchesML(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(64) + 1
		bits := make([]byte, n)
		for i := range bits {
			bits[i] = byte(rng.Intn(2))
		}
		halves, err := FM0Encode(bits)
		if err != nil {
			t.Fatal(err)
		}
		for i := range halves {
			halves[i] += rng.NormFloat64() * 0.4
		}
		want := FM0DecodeML(halves)

		got := FM0DecodeMLAppend(nil, halves)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: append decode %v != ML decode %v", trial, got, want)
		}

		prefix := []byte{9, 9, 9}
		withPrefix := FM0DecodeMLAppend(append([]byte(nil), prefix...), halves)
		if !bytes.Equal(withPrefix[:3], prefix) || !bytes.Equal(withPrefix[3:], want) {
			t.Fatalf("trial %d: prefixed append decode %v", trial, withPrefix)
		}
	}
	if got := FM0DecodeMLAppend([]byte{7}, nil); len(got) != 1 || got[0] != 7 {
		t.Errorf("empty halves should return dst unchanged, got %v", got)
	}
}

// TestFM0DecodeMLAppendZeroAlloc pins the warm decode at zero steady-state
// allocations when dst has spare capacity.
func TestFM0DecodeMLAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool reuse; allocation counts are meaningless")
	}
	bits := make([]byte, 28)
	for i := range bits {
		bits[i] = byte(i % 2)
	}
	halves, err := FM0Encode(bits)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, len(bits))
	dst = FM0DecodeMLAppend(dst, halves) // warm the trellis pool
	if allocs := testing.AllocsPerRun(50, func() {
		dst = FM0DecodeMLAppend(dst[:0], halves)
	}); allocs != 0 {
		t.Errorf("warm FM0DecodeMLAppend allocated %.1f objects/op, want 0", allocs)
	}
}

// TestFM0DecodeMLOverflowIndependentOfPool: samples large enough that every
// path cost overflows to +Inf leave the trellis unreached, and the
// traceback must not follow a previous decode's nodes out of the pooled
// trellis. The overflow frame decodes the same after any earlier frame.
func TestFM0DecodeMLOverflowIndependentOfPool(t *testing.T) {
	huge := []float64{1e200, -1e200, 1e200, 1e200, -1e200, -1e200, 1e200, -1e200}
	var first []byte
	for _, prior := range [][]byte{{1, 1, 1, 1}, {0, 0, 0, 0}, {1, 0, 1, 1}} {
		halves, err := FM0Encode(prior)
		if err != nil {
			t.Fatal(err)
		}
		FM0DecodeML(halves)
		got := FM0DecodeML(huge)
		if first == nil {
			first = got
			continue
		}
		if !bytes.Equal(got, first) {
			t.Fatalf("after decoding %v the overflow frame decodes to %v, first %v", prior, got, first)
		}
	}
}
