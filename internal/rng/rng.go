// Package rng provides the simulator's random source: a SplitMix64
// generator behind the standard *rand.Rand. Reseeding is O(1) — one
// word store — where math/rand's default source re-runs a 607-word
// seeding pass (~15 µs), so a session can pin every attempt's draws
// to a pure function of (seed, attempt ordinal) by reseeding its
// streams at each attempt for free.
package rng

import "math/rand"

// Source is a SplitMix64 rand.Source64. The zero value is seeded at 0.
type Source struct{ state uint64 }

// Seed resets the stream to seed in O(1).
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// New returns a *rand.Rand over a Source seeded with seed. The
// generator and its source share one allocation: a session holds its
// streams for life, and one object stays denser in the heap than two.
func New(seed int64) *rand.Rand {
	p := new(struct {
		r   rand.Rand
		src Source
	})
	p.src.Seed(seed)
	p.r = *rand.New(&p.src)
	return &p.r
}

// Mix derives a decorrelated seed from (base, n) with the SplitMix64
// finalizer — a pure function, so stream n of base is reproducible
// anywhere without replaying streams 0..n-1.
func Mix(base int64, n int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(n+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
