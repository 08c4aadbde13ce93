//go:build !amd64

package fec

// acsSteps is the forward pass of Decode; without an assembly kernel
// it is the Go one.
func acsSteps(bufs *[2][NumStates]float64, soft []float64, surv []uint64) (final int) {
	return acsStepsGeneric(bufs, soft, surv)
}
