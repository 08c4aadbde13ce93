package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// dftNaive is the O(n^2) reference implementation.
func dftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for i := 0; i < n; i++ {
			acc += x[i] * Phasor(-2*math.Pi*float64(k)*float64(i)/float64(n))
		}
		out[k] = acc
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128} {
		x := randSignal(r, n)
		got := FFT(x)
		want := dftNaive(x)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-7*float64(n) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, n := range []int{2, 16, 64, 256, 1024} {
		x := randSignal(r, n)
		y := IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d sample %d: got %v want %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestFFTImpulseIsFlat(t *testing.T) {
	x := Zeros(64)
	x[0] = 1
	y := FFT(x)
	for k, v := range y {
		if cmplx.Abs(v-1) > eps {
			t.Fatalf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestFFTSingleToneConcentrates(t *testing.T) {
	const n = 64
	const bin = 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = Phasor(2 * math.Pi * bin * float64(i) / n)
	}
	y := FFT(x)
	for k, v := range y {
		if k != bin && cmplx.Abs(v) >= cmplx.Abs(y[bin]) {
			t.Fatalf("bin %d (%v) as strong as tone bin %d", k, v, bin)
		}
	}
	if cmplx.Abs(y[bin]) < n-1e-6 {
		t.Fatalf("tone bin magnitude %v, want %d", cmplx.Abs(y[bin]), n)
	}
}

func TestFFTParseval(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	x := randSignal(r, 128)
	y := FFT(x)
	// sum|x|^2 == sum|X|^2 / N
	if !approx(Energy(x), Energy(y)/128, 1e-7*Energy(x)) {
		t.Fatalf("Parseval violated: %v vs %v", Energy(x), Energy(y)/128)
	}
}

func TestFFTLinearity(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	a := randSignal(r, 32)
	b := randSignal(r, 32)
	lhs := FFT(Add(a, b))
	rhs := Add(FFT(a), FFT(b))
	for i := range lhs {
		if cmplx.Abs(lhs[i]-rhs[i]) > 1e-8 {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

func TestFFTNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two size")
		}
	}()
	FFT(make([]complex128, 12))
}

func TestConvolutionTheorem(t *testing.T) {
	// Circular convolution via FFT equals linear convolution when both
	// inputs are zero-padded to the full length.
	r := rand.New(rand.NewSource(11))
	x := randSignal(r, 20)
	h := randSignal(r, 9)
	const n = 32 // the power of two covering len(x)+len(h)-1 = 28
	xp := append(append([]complex128{}, x...), Zeros(n-len(x))...)
	hp := append(append([]complex128{}, h...), Zeros(n-len(h))...)
	spec, hspec := FFT(xp), FFT(hp)
	for k := range spec {
		spec[k] *= hspec[k]
	}
	viaFFT := IFFT(spec)
	direct := Convolve(x, h)
	for i := range direct {
		if cmplx.Abs(viaFFT[i]-direct[i]) > 1e-8 {
			t.Fatalf("sample %d: fft %v direct %v", i, viaFFT[i], direct[i])
		}
	}
}
