// Package prng builds the seeded random streams every simulated entity
// owns: one per sensor, channel, slotter and pool worker, plus the keyed
// draws of the two shared consumers (fault injector, span tracer).
//
// A stream is math/rand/v2's PCG generator: 16 bytes of state, seeded in
// O(1). The lagged-Fibonacci source of math/rand it replaces carries
// 4.9 KB of state and spends thousands of operations per seed, which at
// building scale (three sensors, a slotter and a channel per capsule) made
// seeding the bulk of fleet construction and made the per-read draws miss
// the cache.
//
// Entities are seeded with adjacent integers (node i uses seed+i), and PCG
// streams from raw adjacent seeds are visibly correlated, so the integer
// seed is first expanded through splitmix64 into the generator's two state
// words. Same seed, same stream; adjacent seeds, independent streams.
//
// A stream is only reproducible if one goroutine consumes it in a fixed
// order. Consumers shared across goroutines instead draw through Keyed: a
// pure function of a seed and the draw's identity (entity, ordinal), so a
// draw's value never depends on which other draws ran first.
package prng

import "math/rand/v2"

// New returns a generator whose PCG state derives from seed.
func New(seed int64) *rand.Rand {
	s := uint64(seed)
	hi := splitmix64(&s)
	lo := splitmix64(&s)
	return rand.New(rand.NewPCG(hi, lo))
}

// Keyed returns a 64-bit draw that depends only on seed and the keys, in
// order. Each key indexes a splitmix64 stream seeded by the output so far:
// Keyed(s, k) is output k of the stream seeded with the first output of s,
// so the draws Keyed(s, e, 0), Keyed(s, e, 1), ... of one entity e are
// consecutive outputs of one splitmix64 generator.
func Keyed(seed uint64, keys ...uint64) uint64 {
	s := seed
	z := splitmix64(&s)
	for _, k := range keys {
		s = z + k*golden
		z = splitmix64(&s)
	}
	return z
}

// golden is splitmix64's stream increment, 2^64 / φ.
const golden = 0x9e3779b97f4a7c15

// splitmix64 advances the splitmix64 state and returns its next output
// (Steele, Lea and Flood, "Fast splittable pseudorandom number
// generators", 2014).
func splitmix64(s *uint64) uint64 {
	*s += golden
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
