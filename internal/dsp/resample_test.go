package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestDecimate(t *testing.T) {
	x := []complex128{0, 1, 2, 3, 4, 5, 6}
	got := Decimate(x, 3, 1)
	want := []complex128{1, 4}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Decimate = %v", got)
		}
	}
}

func TestDecimateBadArgsPanics(t *testing.T) {
	for _, c := range []struct{ f, o int }{{0, 0}, {2, 2}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for factor=%d offset=%d", c.f, c.o)
				}
			}()
			Decimate([]complex128{1}, c.f, c.o)
		}()
	}
}

func TestUpsampleDecimateRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	x := randSignal(r, 25)
	y := Decimate(Upsample(x, 4), 4, 0)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("round trip differs at %d", i)
		}
	}
}

func TestRepeatHold(t *testing.T) {
	x := []complex128{1, complex(0, 2)}
	y := RepeatHold(x, 3)
	want := []complex128{1, 1, 1, complex(0, 2), complex(0, 2), complex(0, 2)}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("RepeatHold = %v", y)
		}
	}
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	x := randSignal(r, 64)
	y := FFT(x)
	for _, k := range []int{0, 1, 7, 31} {
		g := Goertzel(x, float64(k)/64)
		if cmplx.Abs(g-y[k]) > 1e-8 {
			t.Fatalf("bin %d: goertzel %v fft %v", k, g, y[k])
		}
	}
}

func TestGoertzelTone(t *testing.T) {
	const n = 100
	const f = 0.13
	x := make([]complex128, n)
	for i := range x {
		x[i] = Phasor(2 * math.Pi * f * float64(i))
	}
	g := Goertzel(x, f)
	if !approx(cmplx.Abs(g), n, 1e-6) {
		t.Fatalf("tone magnitude %v, want %d", cmplx.Abs(g), n)
	}
}
