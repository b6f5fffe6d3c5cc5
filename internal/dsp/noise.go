package dsp

import (
	"math"
	"math/rand/v2"

	"ecocapsule/internal/prng"
)

// NoiseSource generates deterministic Gaussian noise for the channel
// simulator. Every experiment seeds its own source so runs are reproducible.
type NoiseSource struct {
	rng *rand.Rand
}

// NewNoiseSource returns a source on its own PCG stream (see package prng):
// O(1) to seed, and adjacent seeds give independent streams.
func NewNoiseSource(seed int64) *NoiseSource {
	return &NoiseSource{rng: prng.New(seed)}
}

// Gaussian returns one sample of zero-mean Gaussian noise with the given
// standard deviation.
func (n *NoiseSource) Gaussian(sigma float64) float64 {
	return n.rng.NormFloat64() * sigma
}

// Uniform returns a uniform sample in [0, 1).
func (n *NoiseSource) Uniform() float64 { return n.rng.Float64() }

// Intn returns a uniform integer in [0, max).
func (n *NoiseSource) Intn(max int) int { return n.rng.IntN(max) }

// AddAWGN adds white Gaussian noise of the given standard deviation to x
// in place and returns x for chaining.
func (n *NoiseSource) AddAWGN(x []float64, sigma float64) []float64 {
	for i := range x {
		x[i] += n.Gaussian(sigma)
	}
	return x
}

// SigmaForSNR computes the noise standard deviation that yields the target
// SNR (dB) against a signal of the given RMS amplitude.
func SigmaForSNR(signalRMS, snrDB float64) float64 {
	if signalRMS <= 0 {
		return 0
	}
	return signalRMS / math.Pow(10, snrDB/20)
}

// MeasureSNR estimates the SNR (dB) of signal+noise y against a clean
// reference x of the same length: SNR = power(x) / power(y−x).
func MeasureSNR(x, y []float64) float64 {
	n := len(x)
	if n == 0 || len(y) != n {
		return math.Inf(-1)
	}
	var ps, pn float64
	for i := range x {
		ps += x[i] * x[i]
		d := y[i] - x[i]
		pn += d * d
	}
	if pn == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(ps/pn)
}
