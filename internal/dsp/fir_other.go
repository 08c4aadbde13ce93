//go:build !amd64

package dsp

// convolveBlocks is the register-blocked interior of ConvolveRangeInto;
// without an assembly kernel it is the Go one.
func convolveBlocks(dst, x, h []complex128, n, hi int) int {
	return convolveBlocksGeneric(dst, x, h, n, hi)
}
