package dsp

import "testing"

func TestWindowsEndpointsAndSymmetry(t *testing.T) {
	for name, w := range map[string][]float64{"hamming": Hamming(33), "hann": Hann(33)} {
		for i := range w {
			if !approx(w[i], w[len(w)-1-i], 1e-12) {
				t.Fatalf("%s window asymmetric at %d", name, i)
			}
			if w[i] < 0 || w[i] > 1 {
				t.Fatalf("%s window out of range: %v", name, w[i])
			}
		}
	}
	if Hann(33)[0] > 1e-12 {
		t.Fatal("hann endpoints should be 0")
	}
	if Hamming(1)[0] != 1 || Hann(1)[0] != 1 {
		t.Fatal("single-point windows should be 1")
	}
}

func TestApplyWindow(t *testing.T) {
	x := []complex128{2, 2}
	w := []float64{0.5, 1}
	y := ApplyWindow(x, w)
	if y[0] != 1 || y[1] != 2 {
		t.Fatalf("ApplyWindow = %v", y)
	}
}
