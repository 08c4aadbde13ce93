package dsp

import "math"

// Convolve returns the full linear convolution of x and h, of length
// len(x)+len(h)-1. Either argument may be empty, yielding nil.
//
// Direct convolution is used for short kernels (the simulator's channels
// are ≤ 64 taps); FFT-based overlap is not needed at these sizes.
func Convolve(x, h []complex128) []complex128 {
	if len(x) == 0 || len(h) == 0 {
		return nil
	}
	out := make([]complex128, len(x)+len(h)-1)
	for i, hv := range h {
		if hv == 0 {
			continue
		}
		for j, xv := range x {
			out[i+j] += xv * hv
		}
	}
	return out
}

// ConvolveSame returns the causal "same-length" convolution: the first
// len(x) samples of the full convolution. This is the natural model of a
// causal FIR channel acting on a signal: output sample n depends on
// x[n-k] for tap k.
func ConvolveSame(x, h []complex128) []complex128 {
	return ConvolveSameInto(nil, x, h)
}

// ConvolveSameInto is ConvolveSame writing into dst, which is grown if
// cap(dst) < len(x) and reused otherwise — the hot-path variant for
// callers that convolve repeatedly at a fixed length (the reader's
// reference signal, the canceller's reconstruction). It returns the
// result slice (always dst[:len(x)] when dst had capacity). dst must
// not alias x or h. Unlike the full convolution it never computes the
// len(h)-1 tail samples that "same" semantics would discard.
func ConvolveSameInto(dst, x, h []complex128) []complex128 {
	if cap(dst) < len(x) {
		dst = make([]complex128, len(x))
	}
	dst = dst[:len(x)]
	for i := range dst {
		dst[i] = 0
	}
	for i, hv := range h {
		if hv == 0 || i >= len(x) {
			continue
		}
		xs := x[:len(x)-i]
		out := dst[i:]
		for j, xv := range xs {
			out[j] += xv * hv
		}
	}
	return dst
}

// ConvolveRangeInto computes only the output samples [lo, hi) of the
// "same"-length convolution x⊛h, writing them into dst[lo:hi] (dst is
// grown to len(x) if needed; samples outside [lo, hi) are left as-is).
// Each requested sample equals, bit for bit, the one ConvolveSameInto
// would produce: it sums x[n-i]·h[i] over the nonzero taps i ≤ n in tap
// order. A caller that only reads a window of the result — the serving
// hot path cancelling and correlating around the tag symbols instead of
// the whole capture — skips the rest of the waveform entirely. dst must
// not alias x or h.
func ConvolveRangeInto(dst, x, h []complex128, lo, hi int) []complex128 {
	if cap(dst) < len(x) {
		grown := make([]complex128, len(x))
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:len(x)]
	lo = max(lo, 0)
	hi = min(hi, len(x))
	n := lo
	// Outputs near x[0] see only the taps i ≤ n.
	for ; n < hi && n < len(h)-1; n++ {
		dst[n] = convolveAt(x, h[:n+1], n)
	}
	// Register-blocked interior: one sweep over the taps accumulates a
	// block of outputs (the AVX2 kernel on amd64 CPUs that have it, the
	// Go kernel elsewhere); the leftover outputs go one at a time.
	n = convolveBlocks(dst, x, h, n, hi)
	for ; n < hi; n++ {
		dst[n] = convolveAt(x, h, n)
	}
	return dst
}

// convolveAt is output sample n of x⊛h, summing x[n-i]·h[i] over the
// nonzero taps in order; every tap must satisfy i ≤ n.
func convolveAt(x, h []complex128, n int) complex128 {
	var acc complex128
	for i, hv := range h {
		if hv != 0 {
			acc += x[n-i] * hv
		}
	}
	return acc
}

// LowPassFIR designs a linear-phase low-pass filter by the
// Hamming-windowed-sinc method: cutoff is the normalized frequency
// (cycles/sample, 0 < cutoff < 0.5) and taps the odd filter length.
// The passband gain is normalized to exactly 1 at DC.
func LowPassFIR(cutoff float64, taps int) []complex128 {
	if cutoff <= 0 || cutoff >= 0.5 {
		panic("dsp: low-pass cutoff must be in (0, 0.5)")
	}
	if taps < 3 || taps%2 == 0 {
		panic("dsp: low-pass taps must be odd and >= 3")
	}
	h := make([]complex128, taps)
	w := Hamming(taps)
	mid := taps / 2
	var sum float64
	for i := range h {
		n := float64(i - mid)
		var v float64
		if n == 0 {
			v = 2 * cutoff
		} else {
			v = math.Sin(2*math.Pi*cutoff*n) / (math.Pi * n)
		}
		v *= w[i]
		sum += v
		h[i] = complex(v, 0)
	}
	for i := range h {
		h[i] /= complex(sum, 0)
	}
	return h
}
