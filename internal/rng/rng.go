// Package rng provides the simulator's random source: a SplitMix64
// generator behind the standard *rand.Rand, plus a block Gaussian
// generator over the same stream (normal.go). Reseeding is O(1) — one
// word store — where math/rand's default source re-runs a 607-word
// seeding pass (~15 µs), so a session can pin every attempt's draws
// to a pure function of (seed, attempt ordinal) by reseeding its
// streams at each attempt for free.
package rng

import "math/rand"

// Source is a SplitMix64 rand.Source64. The zero value is seeded at 0.
type Source struct{ state uint64 }

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source { return &Source{state: uint64(seed)} }

// Seed resets the stream to seed in O(1).
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// New returns a *rand.Rand over a Source seeded with seed.
func New(seed int64) *rand.Rand {
	r, _ := NewWithSource(seed)
	return r
}

// NewWithSource is New that also returns the generator's Source, for a
// caller that draws blocks of normals (FillNormal, AddComplexNormal)
// from the same stream its *rand.Rand reads: one Seed on either
// reseeds both. The generator and its source share one allocation: a
// session holds its streams for life, and one object stays denser in
// the heap than two.
func NewWithSource(seed int64) (*rand.Rand, *Source) {
	p := new(struct {
		r   rand.Rand
		src Source
	})
	p.src.Seed(seed)
	p.r = *rand.New(&p.src)
	return &p.r, &p.src
}

// Mix derives a decorrelated seed from (base, n) with the SplitMix64
// finalizer — a pure function, so stream n of base is reproducible
// anywhere without replaying streams 0..n-1.
func Mix(base int64, n int) int64 {
	return int64(mix64(uint64(base) + 0x9e3779b97f4a7c15*uint64(n+1)))
}
