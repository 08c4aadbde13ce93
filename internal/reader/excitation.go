package reader

import (
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"

	"backfi/internal/linalg"
	"backfi/internal/tag"
)

// MemoBytes bounds what one Excitation's memo retains, counting its
// arena chunks, fitOverhead per entry and each distinct vector of chip
// energies. It covers the default decoder's worst case, ≈ 37 KiB: the
// digital canceller's 32-tap factor (8.3 KiB) plus one 8-tap
// channel-estimate factor (576 B) for each of the
// 2·timingPasses·TimingSearch + 1 = 37 PN grids its timing search can
// reach fit two chunks, and all share one 32-chip energy vector. A
// factor past the bound is built for its fit and not retained.
const MemoBytes = 40 << 10

// arenaChunk is the memo's allocation unit for factor triangles, in
// complex128 entries: 16 KiB, a Go size class of one object per span,
// so the factors pin no partly used span of an odd size class (a lone
// 32-tap triangle would pin 56 KiB on its own).
const arenaChunk = 1024

// fitOverhead is what a memo entry costs besides its triangle and chip
// energies: its place in the snapshot.
const fitOverhead = 128

// Excitation is the AP's own transmission as the decoder uses it: the
// ideal baseband samples every capture is aligned with, and a memo of
// the least-squares factors that depend on those samples alone
// (DESIGN.md §5p). Two of every frame's fits have a Gram matrix built
// only from the excitation — the combined channel from the PN preamble
// and the digital canceller over the silent window — so one factor per
// PN grid and per training window serves every frame, chain and tag
// that decodes against this excitation; each fit then sums only its
// right-hand side.
//
// The samples are never written. The memo is write-once per key and
// safe for concurrent use, so one pooled template serves every shard;
// racing builders of one key compute identical factors and the first
// is kept.
type Excitation struct {
	x     []complex128
	fits  atomic.Pointer[[]fit] // a snapshot, replaced whole under mu
	mu    sync.Mutex
	size  int          // bytes retained, under mu
	arena []complex128 // the current chunk's free space, under mu
}

// fit is one memoized factor, held by value so a memo's entries are
// one allocation. chips holds each preamble chip's |c|² for a
// channel-estimate fit (entries with equal energies share one slice),
// nil for a canceller fit.
type fit struct {
	key   fitKey
	chips []float64
	f     linalg.Factor
}

// fitKey is everything a memoized Gram matrix reads besides the
// excitation and the chips: which fit, its rows (the PN grid start, or
// the training window [start, stop)), its tap count and its ridge λ.
type fitKey struct {
	canceller   bool
	start, stop int
	taps        int
	lambda      uint64
}

// NewExcitation wraps x, which the caller must not write afterwards.
func NewExcitation(x []complex128) *Excitation { return &Excitation{x: x} }

// Samples returns the excitation's samples, shared and read-only.
func (e *Excitation) Samples() []complex128 { return e.x }

// lookup returns the memoized factor for key (and chips pn), nil when
// none is retained.
func (e *Excitation) lookup(key fitKey, pn []complex128) *linalg.Factor {
	fits := e.fits.Load()
	if fits == nil {
		return nil
	}
	for i := range *fits {
		if ft := &(*fits)[i]; ft.key == key && sameChips(ft.chips, pn) {
			return &ft.f
		}
	}
	return nil
}

// keep retains f under key unless a racing builder got there first or
// the memo is full, and returns the factor the key resolves to.
func (e *Excitation) keep(key fitKey, pn []complex128, f *linalg.Factor) *linalg.Factor {
	e.mu.Lock()
	defer e.mu.Unlock()
	if got := e.lookup(key, pn); got != nil {
		return got
	}
	var old []fit
	if p := e.fits.Load(); p != nil {
		old = *p
	}
	m := f.Len()
	cost := fitOverhead
	if len(e.arena) < m {
		cost += 16 * max(arenaChunk, m)
	}
	var chips []float64
	if !key.canceller {
		for i := range old {
			if ft := &old[i]; ft.chips != nil && sameChips(ft.chips, pn) {
				chips = ft.chips
				break
			}
		}
		if chips == nil {
			cost += 8 * len(pn)
			chips = make([]float64, len(pn))
			for c, chip := range pn {
				chips[c] = chipEnergy(chip)
			}
		}
	}
	if e.size+cost > MemoBytes {
		return f
	}
	if len(e.arena) < m {
		e.arena = make([]complex128, max(arenaChunk, m))
	}
	next := append(old[:len(old):len(old)], fit{key: key, chips: chips, f: f.CopyInto(e.arena)})
	e.arena = e.arena[m:]
	e.fits.Store(&next)
	e.size += cost
	return &next[len(old)].f
}

// sameChips reports whether the chips pn have the energies chips.
func sameChips(chips []float64, pn []complex128) bool {
	if len(chips) != len(pn) {
		return false
	}
	for c, chip := range pn {
		if math.Float64bits(chips[c]) != math.Float64bits(chipEnergy(chip)) {
			return false
		}
	}
	return true
}

func chipEnergy(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }

// cancellerFactor is the digital canceller's factor: the Gram matrix
// of the excitation's ntaps-tap convolution over the training window
// [start, stop), ridge-loaded with lambda.
func (e *Excitation) cancellerFactor(ntaps, start, stop int, lambda float64) *linalg.Factor {
	key := fitKey{canceller: true, start: start, stop: stop, taps: ntaps, lambda: math.Float64bits(lambda)}
	if f := e.lookup(key, nil); f != nil {
		return f
	}
	return e.keep(key, nil, linalg.ToeplitzFactor(e.x, ntaps, start, stop, lambda))
}

// channelFactor is the combined-channel fit's factor at the PN grid
// preStart: the Gram matrix of the rows estimateHfbInto fits (each
// chip's samples whose whole L-tap span lies inside the chip), weighted
// by the chip's |c|² and ridge-loaded with lambda. The caller checks
// that there are enough rows.
func (e *Excitation) channelFactor(L int, lambda float64, preStart int, pn []complex128) *linalg.Factor {
	key := fitKey{start: preStart, taps: L, lambda: math.Float64bits(lambda)}
	if f := e.lookup(key, pn); f != nil {
		return f
	}
	x := e.x
	g := linalg.NewMatrix(L, L)
	for c, chip := range pn {
		chipStart := preStart + c*tag.ChipSamples
		cc := chipEnergy(chip)
		for n := chipStart + L - 1; n < chipStart+tag.ChipSamples; n++ {
			// Row n of the design matrix is chip·x[n-k]; accumulate
			// the upper triangle of AᴴA without building A.
			for k := 0; k < L; k++ {
				cxk := cmplx.Conj(x[n-k])
				row := g.Data[k*L:]
				for l := k; l < L; l++ {
					row[l] += complex(cc, 0) * cxk * x[n-l]
				}
			}
		}
	}
	for k := 0; k < L; k++ {
		for l := 0; l < k; l++ {
			g.Data[k*L+l] = cmplx.Conj(g.Data[l*L+k])
		}
	}
	return e.keep(key, pn, linalg.NewFactor(g, lambda))
}
