package dsp

import "math/cmplx"

// NormalizedCrossCorrelate returns |c[k]|^2 / (E_ref * E_window), a value
// in [0,1] that is immune to amplitude scaling. Windows with zero energy
// yield 0.
func NormalizedCrossCorrelate(x, ref []complex128) []float64 {
	if len(ref) == 0 || len(ref) > len(x) {
		return nil
	}
	eref := Energy(ref)
	lags := len(x) - len(ref) + 1
	out := make([]float64, lags)
	// Maintain the window energy incrementally.
	var ewin float64
	for n := 0; n < len(ref); n++ {
		ewin += absSq(x[n])
	}
	for k := 0; k < lags; k++ {
		var acc complex128
		for n, r := range ref {
			acc += x[k+n] * cmplx.Conj(r)
		}
		if ewin > 0 && eref > 0 {
			out[k] = absSq(acc) / (eref * ewin)
		}
		if k+len(ref) < len(x) {
			ewin += absSq(x[k+len(ref)]) - absSq(x[k])
			if ewin < 0 {
				ewin = 0
			}
		}
	}
	return out
}

// AutoCorrelateLag returns a[k] = sum_n x[n] * conj(x[n+lag]) over the
// first n samples where both indices are valid. Used by Schmidl-Cox style
// packet detection on the periodic WiFi short training field.
func AutoCorrelateLag(x []complex128, lag, n int) complex128 {
	var acc complex128
	for i := 0; i < n && i+lag < len(x); i++ {
		acc += x[i] * cmplx.Conj(x[i+lag])
	}
	return acc
}

// PeakIndex returns the index of the maximum value in v, or -1 if empty.
func PeakIndex(v []float64) int {
	best, idx := 0.0, -1
	for i, x := range v {
		if idx == -1 || x > best {
			best, idx = x, i
		}
	}
	return idx
}

func absSq(v complex128) float64 {
	return real(v)*real(v) + imag(v)*imag(v)
}
