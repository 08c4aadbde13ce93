package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// FFT computes the in-order radix-2 decimation-in-time discrete Fourier
// transform of x. len(x) must be a power of two. The input is not
// modified. The forward transform is unnormalized:
//
//	X[k] = sum_n x[n] * e^{-j 2π k n / N}
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	FFTInPlace(out)
	return out
}

// IFFT computes the inverse DFT with 1/N normalization so that
// IFFT(FFT(x)) == x up to rounding.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	IFFTInPlace(out)
	return out
}

// FFTInPlace transforms x in place. After the first call for a given
// size the transform is allocation-free: the twiddle factors and
// bit-reversal permutation come from a shared per-size plan cache.
func FFTInPlace(x []complex128) {
	fftForward(x)
}

// IFFTInPlace computes the inverse DFT of x in place, with 1/N
// normalization. Allocation-free once the size's plan is cached.
func IFFTInPlace(x []complex128) {
	if len(x) == 0 {
		return
	}
	// IFFT(x) = conj(FFT(conj(x)))/N. Conjugation is exact in IEEE
	// arithmetic, so this matches a dedicated inverse butterfly pass
	// bit for bit while sharing the forward twiddle table.
	conjInPlace(x)
	fftForward(x)
	n := 1 / float64(len(x))
	for i := range x {
		x[i] = complex(real(x[i])*n, -imag(x[i])*n)
	}
}

// plan caches the size-dependent constants of the radix-2 transform:
// the bit-reversal permutation and the forward twiddle factors for
// every butterfly stage. Plans are immutable once built and shared by
// all goroutines, so the parallel sweep engine hits the cache instead
// of re-deriving the w *= wstep recurrence on every call (the
// precomputed exp(-j2πk/size) values are also more accurate than the
// accumulated recurrence).
type plan struct {
	perm []int32
	// tw packs the stages back to back: size 2 contributes 1 twiddle,
	// size 4 two, ..., size n n/2 — n−1 in total. Stage with half
	// butterflies starts at offset half−1.
	tw []complex128
}

var planCache sync.Map // map[int]*plan

func planFor(n int) *plan {
	if p, ok := planCache.Load(n); ok {
		return p.(*plan)
	}
	p, _ := planCache.LoadOrStore(n, newPlan(n))
	return p.(*plan)
}

func newPlan(n int) *plan {
	p := &plan{perm: make([]int32, n), tw: make([]complex128, n-1)}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		p.perm[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	idx := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		for k := 0; k < half; k++ {
			p.tw[idx] = Phasor(-2 * math.Pi * float64(k) / float64(size))
			idx++
		}
	}
	return p
}

// fftForward runs the iterative radix-2 Cooley-Tukey transform using
// the cached plan for len(a).
func fftForward(a []complex128) {
	n := len(a)
	if n <= 1 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT size %d is not a power of two", n))
	}
	p := planFor(n)
	for i, j := range p.perm {
		if int(j) > i {
			a[i], a[j] = a[j], a[i]
		}
	}
	idx := 0
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stage := p.tw[idx : idx+half]
		idx += half
		for start := 0; start < n; start += size {
			blk := a[start : start+size : start+size]
			for k, w := range stage {
				u := blk[k]
				t := blk[k+half] * w
				blk[k] = u + t
				blk[k+half] = u - t
			}
		}
	}
}

func conjInPlace(a []complex128) {
	for i := range a {
		a[i] = complex(real(a[i]), -imag(a[i]))
	}
}
