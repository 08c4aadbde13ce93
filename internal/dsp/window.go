package dsp

import "math"

// Hamming returns an n-point Hamming window.
func Hamming(n int) []float64 {
	return cosineWindow(n, 0.54, 0.46)
}

// Hann returns an n-point Hann window.
func Hann(n int) []float64 {
	return cosineWindow(n, 0.5, 0.5)
}

func cosineWindow(n int, a, b float64) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = a - b*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

// ApplyWindow multiplies signal x elementwise by the real window w.
func ApplyWindow(x []complex128, w []float64) []complex128 {
	mustSameLen(len(x), len(w))
	out := make([]complex128, len(x))
	for i := range x {
		out[i] = x[i] * complex(w[i], 0)
	}
	return out
}
