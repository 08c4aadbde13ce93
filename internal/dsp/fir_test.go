package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvolveKnownValues(t *testing.T) {
	x := []complex128{1, 2, 3}
	h := []complex128{1, -1}
	got := Convolve(x, h)
	want := []complex128{1, 1, 1, -3}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !capprox(got[i], want[i], eps) {
			t.Fatalf("sample %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if Convolve(nil, []complex128{1}) != nil {
		t.Fatal("empty x should give nil")
	}
	if Convolve([]complex128{1}, nil) != nil {
		t.Fatal("empty h should give nil")
	}
}

func TestConvolveCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	x := randSignal(r, 15)
	h := randSignal(r, 7)
	a := Convolve(x, h)
	b := Convolve(h, x)
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("commutativity violated at %d", i)
		}
	}
}

func TestConvolveIdentity(t *testing.T) {
	f := func(re, im float64, n uint8) bool {
		m := int(n%16) + 1
		x := make([]complex128, m)
		for i := range x {
			x[i] = complex(re, im)
		}
		y := Convolve(x, []complex128{1})
		if len(y) != m {
			return false
		}
		for i := range x {
			if y[i] != x[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConvolveSameLength(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	x := randSignal(r, 40)
	h := randSignal(r, 5)
	y := ConvolveSame(x, h)
	if len(y) != len(x) {
		t.Fatalf("length %d, want %d", len(y), len(x))
	}
	full := Convolve(x, h)
	for i := range y {
		if y[i] != full[i] {
			t.Fatalf("sample %d differs from full convolution", i)
		}
	}
}

func TestLowPassFIRResponse(t *testing.T) {
	h := LowPassFIR(0.1, 63)
	// DC gain exactly 1.
	var dc complex128
	for _, v := range h {
		dc += v
	}
	if cmplx.Abs(dc-1) > 1e-12 {
		t.Fatalf("DC gain %v", dc)
	}
	// Evaluate the frequency response: passband (0.05) near 0 dB,
	// stopband (0.25) strongly attenuated.
	resp := func(f float64) float64 {
		var acc complex128
		for n, v := range h {
			acc += v * Phasor(-2*3.141592653589793*f*float64(n))
		}
		return cmplx.Abs(acc)
	}
	if g := resp(0.05); g < 0.95 || g > 1.05 {
		t.Fatalf("passband gain %v", g)
	}
	if g := resp(0.25); g > 0.02 {
		t.Fatalf("stopband gain %v", g)
	}
}

func TestLowPassFIRValidation(t *testing.T) {
	for _, c := range []struct {
		cutoff float64
		taps   int
	}{{0, 11}, {0.5, 11}, {0.1, 4}, {0.1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for cutoff=%v taps=%d", c.cutoff, c.taps)
				}
			}()
			LowPassFIR(c.cutoff, c.taps)
		}()
	}
}

func TestConvolveRangeIntoMatchesSame(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	x := make([]complex128, 200)
	h := make([]complex128, 13)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	for i := range h {
		h[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	h[4] = 0 // exercise the zero-tap skip
	full := ConvolveSame(x, h)
	for _, win := range [][2]int{
		{0, len(x)}, // full range must match exactly
		{0, 25},     // prefix including the filter transient
		{50, 120},   // interior window
		{190, 200},  // suffix
		{-5, 210},   // out-of-range bounds are clamped
		{80, 80},    // empty window computes nothing
	} {
		dst := ConvolveRangeInto(nil, x, h, win[0], win[1])
		lo, hi := max(win[0], 0), min(win[1], len(x))
		for i := lo; i < hi; i++ {
			if full[i] != dst[i] {
				t.Fatalf("window %v sample %d: got %v want %v", win, i, dst[i], full[i])
			}
		}
	}
}

func TestConvolveRangeIntoPreservesOutside(t *testing.T) {
	x := []complex128{1, 2, 3, 4, 5, 6}
	h := []complex128{1, 1}
	dst := make([]complex128, len(x))
	for i := range dst {
		dst[i] = complex(99, 0)
	}
	dst = ConvolveRangeInto(dst, x, h, 2, 4)
	for i, v := range dst {
		if i >= 2 && i < 4 {
			continue
		}
		if v != complex(99, 0) {
			t.Fatalf("sample %d outside window was overwritten: %v", i, v)
		}
	}
	full := ConvolveSame(x, h)
	if dst[2] != full[2] || dst[3] != full[3] {
		t.Fatalf("window samples wrong: %v vs %v", dst[2:4], full[2:4])
	}
}

func TestConvolveRangeIntoZeroAlloc(t *testing.T) {
	x := make([]complex128, 512)
	for i := range x {
		x[i] = complex(float64(i%7), float64(i%5))
	}
	dst := make([]complex128, len(x))
	for _, taps := range []int{1, 3, 32, 80} {
		h := make([]complex128, taps)
		for i := range h {
			h[i] = complex(1, -1)
		}
		allocs := testing.AllocsPerRun(20, func() {
			dst = ConvolveRangeInto(dst, x, h, 100, 400)
		})
		if allocs != 0 {
			t.Fatalf("ConvolveRangeInto with capacity allocates %v per run at %d taps, want 0", allocs, taps)
		}
	}
}

// sameBits reports whether a and b agree part by part by Float64bits.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// sameBitsOrNaN is sameBits except that any two NaN parts agree. Where
// two NaNs with different payloads meet in one sum, which survives
// depends on the operand order gc picks for the commutative add, and
// that changes even between two inlined copies of convolveAt; Go does
// not specify NaN payloads.
func sameBitsOrNaN(a, b complex128) bool {
	part := func(u, v float64) bool {
		return math.Float64bits(u) == math.Float64bits(v) || (u != u && v != v)
	}
	return part(real(a), real(b)) && part(imag(a), imag(b))
}

// checkRange runs ConvolveRangeInto over [lo, hi) into a dst filled
// with a sentinel and returns "" if every sample in the (clamped)
// window equals convolveAt over the taps i ≤ n by same and every sample
// outside it still holds the sentinel, or else the first difference.
func checkRange(x, h []complex128, lo, hi int, same func(a, b complex128) bool) string {
	sentinel := complex(math.Inf(1), -1)
	dst := make([]complex128, len(x))
	for i := range dst {
		dst[i] = sentinel
	}
	dst = ConvolveRangeInto(dst, x, h, lo, hi)
	for n := range x {
		want := sentinel
		if n >= lo && n < hi {
			want = convolveAt(x, h[:min(len(h), n+1)], n)
		}
		if !same(dst[n], want) {
			return fmt.Sprintf("len %d, %d taps, window [%d,%d): sample %d = %v, want %v",
				len(x), len(h), lo, hi, n, dst[n], want)
		}
	}
	return ""
}

// TestConvolveRangeIntoBitIdentical checks every interior kernel this
// machine runs (the Go one, and on amd64 with AVX2 the assembly one)
// against convolveAt by Float64bits. A sweep over 0–80 taps puts
// windows of 1–17 outputs at, just before and just after len(h)−1, so
// every split into edge outputs, blocks (8, 4 and 2 outputs in AVX2, 3
// in Go) and leftovers occurs, with taps of +0, −0, NaN and ±Inf and an infinite sample:
// ∞·0 is NaN, so a skipped zero tap is observable. Random trials add
// random lengths and windows, windows at x[0], empty, inverted and
// clamped windows, and samples outside the window untouched.
func TestConvolveRangeIntoBitIdentical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan, inf := math.NaN(), math.Inf(1)
	withKernels(t, func(kernel string) {
		r := rand.New(rand.NewSource(23))
		for taps := 0; taps <= 80; taps++ {
			for variant := 0; variant < 4; variant++ {
				x := randSignal(r, taps+40)
				h := randSignal(r, taps)
				switch variant {
				case 1: // zero taps of either sign, an infinite sample
					for i := range h {
						switch i % 3 {
						case 0:
							h[i] = 0
						case 1:
							h[i] = complex(negZero, negZero)
						}
					}
					x[taps+8] = complex(inf, 0)
				case 2: // one NaN tap, one tap with a −0 part
					if taps > 0 {
						h[taps/2] = complex(nan, 0)
						h[taps-1] = complex(negZero, 1)
					}
				case 3: // infinite taps and an infinite sample
					if taps > 0 {
						h[taps/3] = complex(inf, 0)
						h[taps-1] = complex(-1, -inf)
					}
					x[taps+3] = complex(0, -inf)
				}
				for _, lo := range []int{taps - 2, taps - 1, taps} {
					for width := 1; width <= 17; width++ {
						if msg := checkRange(x, h, lo, lo+width, sameBits); msg != "" {
							t.Fatalf("%s kernel, variant %d: %s", kernel, variant, msg)
						}
					}
				}
			}
		}
		for trial := 0; trial < 2000; trial++ {
			x := randSignal(r, r.Intn(200))
			h := randSignal(r, 1+r.Intn(80))
			for i := range h {
				if r.Intn(5) == 0 {
					h[i] = 0
				}
			}
			if trial%7 == 0 {
				h[0] = 0
			}
			if trial%5 == 0 && len(x) > 0 {
				x[r.Intn(len(x))] = complex(math.Inf(1), 0)
			}
			var lo, hi int
			switch trial % 4 {
			case 0: // touching x[0]
				lo, hi = 0, r.Intn(len(x)+1)
			case 1: // empty or inverted
				lo = r.Intn(len(x) + 1)
				hi = lo - r.Intn(3)
			case 2: // clamped at both ends
				lo, hi = -1-r.Intn(5), len(x)+1+r.Intn(5)
			default:
				lo = r.Intn(len(x) + 1)
				hi = lo + r.Intn(len(x)-lo+1)
			}
			if msg := checkRange(x, h, lo, hi, sameBits); msg != "" {
				t.Fatalf("%s kernel, trial %d: %s", kernel, trial, msg)
			}
		}
	})
}

// FuzzConvolveRangeInto checks every interior kernel against
// convolveAt by Float64bits on random signals and windows. The bits of
// special put zero taps of either sign, a NaN tap, an infinite tap and
// an infinite sample into them. A NaN tap next to an infinite tap or
// sample can meet ∞−∞'s NaN in one sum; only then does any NaN agree
// with any other (sameBitsOrNaN).
func FuzzConvolveRangeInto(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(32), int16(31), int16(43), uint8(0))
	f.Add(int64(2), uint8(200), uint8(11), int16(-3), int16(300), uint8(0x1f))
	f.Add(int64(3), uint8(20), uint8(80), int16(0), int16(20), uint8(0x11))
	f.Fuzz(func(t *testing.T, seed int64, nx, nh uint8, lo, hi int16, special uint8) {
		r := rand.New(rand.NewSource(seed))
		x := randSignal(r, int(nx))
		h := randSignal(r, int(nh)%97)
		if len(h) > 0 {
			if special&1 != 0 {
				h[r.Intn(len(h))] = 0
			}
			if special&2 != 0 {
				h[r.Intn(len(h))] = complex(math.Copysign(0, -1), math.Copysign(0, -1))
			}
			if special&4 != 0 {
				h[r.Intn(len(h))] = complex(math.NaN(), 0)
			}
			if special&8 != 0 {
				h[r.Intn(len(h))] = complex(0, math.Inf(-1))
			}
		}
		if special&16 != 0 && len(x) > 0 {
			x[r.Intn(len(x))] = complex(math.Inf(1), 0)
		}
		same := sameBits
		if special&4 != 0 && special&(8|16) != 0 {
			same = sameBitsOrNaN
		}
		withKernels(t, func(kernel string) {
			if msg := checkRange(x, h, int(lo), int(hi), same); msg != "" {
				t.Fatalf("%s kernel: %s", kernel, msg)
			}
		})
	})
}
