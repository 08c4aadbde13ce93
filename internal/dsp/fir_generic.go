package dsp

// convolveBlocksGeneric computes outputs [n, hi) of x⊛h three at a
// time and returns the first output it left, at most two short of hi.
// One sweep over the taps accumulates three outputs in registers. Each
// accumulator adds the same products in the same tap order as
// convolveAt, so the outputs are bit-identical to it; a fourth output
// spills on amd64. Every output must see every tap (n ≥ len(h)−1).
func convolveBlocksGeneric(dst, x, h []complex128, n, hi int) int {
	for ; n+3 <= hi; n += 3 {
		var a0, a1, a2 complex128
		for i, hv := range h {
			// Comparing the parts compiles to two branches; hv == 0 to a
			// slower flag sequence.
			if real(hv) == 0 && imag(hv) == 0 {
				continue
			}
			xs := x[n-i : n-i+3 : n-i+3]
			a0 += xs[0] * hv
			a1 += xs[1] * hv
			a2 += xs[2] * hv
		}
		dst[n], dst[n+1], dst[n+2] = a0, a1, a2
	}
	return n
}
