package dsp

import (
	"math/rand"
	"testing"
)

func TestNormalizedCrossCorrelatePeakIsOne(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	ref := randSignal(r, 32)
	// Embed a scaled copy — normalization should still give ~1.
	x := randSignal(r, 200)
	for i := range ref {
		x[90+i] = ref[i] * complex(3.7, 0)
	}
	c := NormalizedCrossCorrelate(x, ref)
	peak := PeakIndex(c)
	if peak != 90 {
		t.Fatalf("peak at %d, want 90", peak)
	}
	if c[peak] < 0.999 || c[peak] > 1.001 {
		t.Fatalf("normalized peak %v, want ~1", c[peak])
	}
	for i, v := range c {
		if v > 1.0001 {
			t.Fatalf("normalized value %v > 1 at %d", v, i)
		}
	}
}

func TestCrossCorrelateDegenerate(t *testing.T) {
	if NormalizedCrossCorrelate([]complex128{1}, nil) != nil {
		t.Fatal("empty ref should give nil")
	}
	if NormalizedCrossCorrelate([]complex128{1}, []complex128{1, 2}) != nil {
		t.Fatal("ref longer than x should give nil")
	}
}

func TestAutoCorrelateLagDetectsPeriodicity(t *testing.T) {
	// A signal with period 16 has |autocorrelation at lag 16| equal to
	// the window energy.
	r := rand.New(rand.NewSource(32))
	base := randSignal(r, 16)
	x := Concat(base, base, base)
	ac := AutoCorrelateLag(x, 16, 32)
	e := Energy(x[:32])
	if !approx(real(ac), e, 1e-9*e) || !approx(imag(ac), 0, 1e-9*e) {
		t.Fatalf("autocorr %v, want %v", ac, e)
	}
}

func TestPeakIndexEmpty(t *testing.T) {
	if PeakIndex(nil) != -1 {
		t.Fatal("PeakIndex(nil) should be -1")
	}
}

func TestPeakIndexNegativeValues(t *testing.T) {
	if got := PeakIndex([]float64{-5, -2, -9}); got != 1 {
		t.Fatalf("PeakIndex = %d, want 1", got)
	}
}
