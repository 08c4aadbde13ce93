//go:build !amd64

package fec

import "testing"

// withKernels runs f with the one add-compare-select kernel this
// architecture has, the Go one.
func withKernels(t testing.TB, f func(kernel string)) {
	f("generic")
}
