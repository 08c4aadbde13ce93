package dsp

import (
	"testing"

	"backfi/internal/cpufeat"
)

// withKernels runs f once per interior kernel this machine can run —
// the Go kernel, then the AVX2 one if the CPU has it — and restores the
// start-up choice.
func withKernels(t testing.TB, f func(kernel string)) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	f("generic")
	if !cpufeat.AVX2 {
		t.Log("no AVX2: the assembly kernel is not exercised")
		return
	}
	useAVX2 = true
	f("avx2")
}
