// Package dsp provides the complex-baseband signal processing substrate
// used throughout the BackFi simulator: vector arithmetic, FFTs, FIR
// filtering, correlation, windowing, and power/SNR measurement.
//
// All signals are slices of complex128 sampled at a caller-chosen rate
// (the simulator uses 20 MHz). Functions never retain their arguments
// unless documented; in-place variants are suffixed InPlace.
package dsp

import (
	"math"
	"math/cmplx"
)

// Add returns a+b elementwise. The slices must have equal length.
func Add(a, b []complex128) []complex128 {
	mustSameLen(len(a), len(b))
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// AddInPlace adds b into a elementwise.
func AddInPlace(a, b []complex128) {
	mustSameLen(len(a), len(b))
	for i := range a {
		a[i] += b[i]
	}
}

// Sub returns a-b elementwise.
func Sub(a, b []complex128) []complex128 {
	mustSameLen(len(a), len(b))
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// SubInPlace subtracts b from a elementwise.
func SubInPlace(a, b []complex128) {
	mustSameLen(len(a), len(b))
	for i := range a {
		a[i] -= b[i]
	}
}

// Scale returns s*a for a scalar s.
func Scale(a []complex128, s complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = s * a[i]
	}
	return out
}

// Conj returns the elementwise complex conjugate of a.
func Conj(a []complex128) []complex128 {
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = cmplx.Conj(a[i])
	}
	return out
}

// Dot returns the inner product sum_i a[i] * conj(b[i]).
//
// Note the convention: the second argument is conjugated, matching the
// standard complex inner product <a,b> used in MRC combining.
func Dot(a, b []complex128) complex128 {
	mustSameLen(len(a), len(b))
	var acc complex128
	for i := range a {
		acc += a[i] * cmplx.Conj(b[i])
	}
	return acc
}

// Energy returns sum |a[i]|^2.
func Energy(a []complex128) float64 {
	var acc float64
	for _, v := range a {
		acc += real(v)*real(v) + imag(v)*imag(v)
	}
	return acc
}

// Power returns the mean of |a[i]|^2, or 0 for an empty slice.
func Power(a []complex128) float64 {
	if len(a) == 0 {
		return 0
	}
	return Energy(a) / float64(len(a))
}

// MaxAbs returns the maximum |a[i]|, or 0 for an empty slice.
func MaxAbs(a []complex128) float64 {
	max := 0.0
	for _, v := range a {
		if m := cmplx.Abs(v); m > max {
			max = m
		}
	}
	return max
}

// NormalizePower scales a copy of a so its mean power equals target.
// A zero signal is returned unchanged.
func NormalizePower(a []complex128, target float64) []complex128 {
	p := Power(a)
	if p == 0 {
		out := make([]complex128, len(a))
		copy(out, a)
		return out
	}
	return Scale(a, complex(math.Sqrt(target/p), 0))
}

// Phasor returns e^{j*theta}.
func Phasor(theta float64) complex128 {
	s, c := math.Sincos(theta)
	return complex(c, s)
}

// Rotate returns a copy of a with a progressive phase rotation
// e^{j*(phi0 + dphi*n)} applied to sample n. It implements carrier
// frequency/phase offsets at baseband.
func Rotate(a []complex128, phi0, dphi float64) []complex128 {
	out := make([]complex128, len(a))
	rot := Phasor(phi0)
	step := Phasor(dphi)
	for i, v := range a {
		out[i] = v * rot
		rot *= step
	}
	return out
}

// Abs returns the elementwise magnitudes of a.
func Abs(a []complex128) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = cmplx.Abs(v)
	}
	return out
}

// WrapPhase wraps theta into (-pi, pi].
func WrapPhase(theta float64) float64 {
	for theta > math.Pi {
		theta -= 2 * math.Pi
	}
	for theta <= -math.Pi {
		theta += 2 * math.Pi
	}
	return theta
}

// Concat concatenates the given signals into one new slice.
func Concat(parts ...[]complex128) []complex128 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]complex128, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Zeros returns a zero signal of length n.
func Zeros(n int) []complex128 { return make([]complex128, n) }

func mustSameLen(a, b int) {
	if a != b {
		panic("dsp: length mismatch")
	}
}
