// Package prng builds the seeded random streams every simulated entity
// owns: one per sensor, channel, slotter and pool worker.
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
package prng

import "math/rand/v2"

// New returns a generator whose PCG state derives from seed.
func New(seed int64) *rand.Rand {
	s := uint64(seed)
	hi := splitmix64(&s)
	lo := splitmix64(&s)
	return rand.New(rand.NewPCG(hi, lo))
}

// splitmix64 advances the splitmix64 state and returns its next output
// (Steele, Lea and Flood, "Fast splittable pseudorandom number
// generators", 2014).
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
