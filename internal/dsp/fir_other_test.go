//go:build !amd64

package dsp

import "testing"

// withKernels runs f with the one interior kernel this architecture
// has, the Go one.
func withKernels(t testing.TB, f func(kernel string)) {
	f("generic")
}
