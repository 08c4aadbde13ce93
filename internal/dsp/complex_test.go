package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func capprox(a, b complex128, tol float64) bool { return cmplx.Abs(a-b) <= tol }

func randSignal(r *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func TestAddSubRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randSignal(r, 64)
	b := randSignal(r, 64)
	got := Sub(Add(a, b), b)
	for i := range a {
		if !capprox(got[i], a[i], eps) {
			t.Fatalf("sample %d: got %v want %v", i, got[i], a[i])
		}
	}
}

func TestAddInPlaceMatchesAdd(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := randSignal(r, 33)
	b := randSignal(r, 33)
	want := Add(a, b)
	AddInPlace(a, b)
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestSubInPlaceMatchesSub(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randSignal(r, 17)
	b := randSignal(r, 17)
	want := Sub(a, b)
	SubInPlace(a, b)
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Add(make([]complex128, 3), make([]complex128, 4))
}

func TestDotConjugatesSecondArgument(t *testing.T) {
	a := []complex128{complex(0, 1)}
	b := []complex128{complex(0, 1)}
	// <j, j> = j * conj(j) = j * (-j) = 1.
	if got := Dot(a, b); !capprox(got, 1, eps) {
		t.Fatalf("Dot = %v, want 1", got)
	}
}

func TestEnergyPowerRMS(t *testing.T) {
	x := []complex128{3, complex(0, 4)}
	if got := Energy(x); !approx(got, 25, eps) {
		t.Fatalf("Energy = %v, want 25", got)
	}
	if got := Power(x); !approx(got, 12.5, eps) {
		t.Fatalf("Power = %v, want 12.5", got)
	}
	if Power(nil) != 0 {
		t.Fatal("Power(nil) should be 0")
	}
}

func TestNormalizePower(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	x := randSignal(r, 256)
	y := NormalizePower(x, 2.5)
	if got := Power(y); !approx(got, 2.5, 1e-9) {
		t.Fatalf("normalized power = %v, want 2.5", got)
	}
	// Zero signal passes through.
	z := NormalizePower(Zeros(8), 1)
	if Power(z) != 0 {
		t.Fatal("zero signal should remain zero")
	}
}

func TestPhasorUnitMagnitude(t *testing.T) {
	for _, th := range []float64{0, 0.1, math.Pi / 2, -3, 100} {
		p := Phasor(th)
		if !approx(cmplx.Abs(p), 1, eps) {
			t.Fatalf("Phasor(%v) magnitude %v", th, cmplx.Abs(p))
		}
		if !approx(WrapPhase(cmplx.Phase(p)-WrapPhase(th)), 0, 1e-9) {
			t.Fatalf("Phasor(%v) phase %v", th, cmplx.Phase(p))
		}
	}
}

func TestRotateAppliesProgressivePhase(t *testing.T) {
	x := []complex128{1, 1, 1, 1}
	dphi := 0.3
	y := Rotate(x, 0.1, dphi)
	for i := range y {
		want := Phasor(0.1 + dphi*float64(i))
		if !capprox(y[i], want, eps) {
			t.Fatalf("sample %d: got %v want %v", i, y[i], want)
		}
	}
}

func TestRotatePreservesPowerProperty(t *testing.T) {
	f := func(re, im float64, phi0, dphi float64, n uint8) bool {
		if math.Abs(re) > 1e6 || math.Abs(im) > 1e6 || math.Abs(phi0) > 1e6 || math.Abs(dphi) > 1e6 {
			return true
		}
		m := int(n%32) + 1
		x := make([]complex128, m)
		for i := range x {
			x[i] = complex(re, im)
		}
		y := Rotate(x, phi0, dphi)
		return approx(Power(y), Power(x), 1e-9*(1+Power(x)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWrapPhaseRange(t *testing.T) {
	f := func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) || math.Abs(theta) > 1e6 {
			return true
		}
		w := WrapPhase(theta)
		return w > -math.Pi-eps && w <= math.Pi+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcat(t *testing.T) {
	a := []complex128{1, 2}
	b := []complex128{3}
	c := Concat(a, nil, b)
	if len(c) != 3 || c[0] != 1 || c[1] != 2 || c[2] != 3 {
		t.Fatalf("Concat = %v", c)
	}
}

func TestMaxAbs(t *testing.T) {
	x := []complex128{1, complex(3, 4), -2}
	if got := MaxAbs(x); !approx(got, 5, eps) {
		t.Fatalf("MaxAbs = %v, want 5", got)
	}
	if MaxAbs(nil) != 0 {
		t.Fatal("MaxAbs(nil) should be 0")
	}
}

func TestConjInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	x := randSignal(r, 20)
	y := Conj(Conj(x))
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("conj(conj(x)) differs at %d", i)
		}
	}
}
