//go:build !amd64

package cpufeat

// AVX2 is false off amd64: the assembly kernels exist only there.
var AVX2 = false
