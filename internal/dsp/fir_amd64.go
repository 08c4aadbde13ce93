package dsp

// useAVX2 selects the assembly kernel; it is fixed at start-up from
// CPUID (AVX2, with the OS saving the YMM registers). Tests flip it to
// run both kernels in one process.
var useAVX2 = cpuHasAVX2()

// convolveBlocks is the register-blocked interior of ConvolveRangeInto:
// it computes outputs [n, hi) of x⊛h in blocks and returns the first
// output it left. With AVX2 it leaves at most one output; otherwise it
// runs the Go kernel. Every output must see every tap (n ≥ len(h)−1).
func convolveBlocks(dst, x, h []complex128, n, hi int) int {
	if !useAVX2 {
		return convolveBlocksGeneric(dst, x, h, n, hi)
	}
	m := (hi - n) &^ 1
	if m <= 0 {
		return n
	}
	var h0 *complex128
	if len(h) > 0 {
		h0 = &h[0]
	}
	// The kernel reads x[n+1-len(h) : n+m] and writes dst[n : n+m].
	_ = x[n+1-len(h) : n+m]
	_ = dst[n : n+m]
	convolveAVX2(&dst[n], &x[n], h0, len(h), m)
	return n + m
}

// convolveAVX2 writes count outputs (count even) to dst[0:count]:
// output j sums x[j-i]·h[i] over the nonzero taps i < taps in tap
// order, x pointing at the sample output 0 pairs with tap 0. It takes
// eight outputs per sweep over the taps, then at most one block of
// four, then two, and rounds every product and sum as gc's complex128
// arithmetic does (fir_amd64.s).
//
//go:noescape
func convolveAVX2(dst, x, h *complex128, taps, count int)

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS has enabled
// the YMM state (CPUID.7:EBX[5], CPUID.1:ECX OSXSAVE and AVX, XCR0
// bits 1–2).
func cpuHasAVX2() bool
