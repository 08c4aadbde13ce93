package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestToeplitzLSFastMatchesToeplitzLS(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		ntaps, start, stop, n int
	}{
		{8, 0, 64, 128},     // window starting at x[0] (zero-padded rows)
		{16, 40, 200, 256},  // interior window, analog-stage shape
		{32, 64, 320, 512},  // digital-stage shape over the silent window
		{3, 5, 9, 16},       // minimal window: stop-start barely >= ntaps
		{12, 100, 128, 128}, // window ending exactly at len(x)
	} {
		x := randVec(r, tc.n)
		y := randVec(r, tc.n)
		want, err := ToeplitzLS(x, y, tc.ntaps, tc.start, tc.stop, 1e-9)
		if err != nil {
			t.Fatalf("ToeplitzLS %+v: %v", tc, err)
		}
		var ws ToeplitzWorkspace
		got, err := ToeplitzLSFast(&ws, x, y, tc.ntaps, tc.start, tc.stop, 1e-9)
		if err != nil {
			t.Fatalf("ToeplitzLSFast %+v: %v", tc, err)
		}
		vecApprox(t, got, want, 1e-8)
	}
}

func TestToeplitzLSFastWorkspaceReuse(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var ws ToeplitzWorkspace
	// Successive calls with different tap counts and data must each
	// match the reference solver — the workspace carries no state
	// between problems beyond reusable capacity.
	for i := 0; i < 5; i++ {
		ntaps := 4 + 7*i
		x := randVec(r, 300)
		y := randVec(r, 300)
		want, err := ToeplitzLS(x, y, ntaps, 20, 280, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ToeplitzLSFast(&ws, x, y, ntaps, 20, 280, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		vecApprox(t, got, want, 1e-8)
	}
}

func TestToeplitzLSFastRecoversKnownTaps(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	x := randVec(r, 400)
	h := randVec(r, 10)
	// y = x ⊛ h with causal "same" semantics.
	y := make([]complex128, len(x))
	for k, hv := range h {
		for n := k; n < len(x); n++ {
			y[n] += hv * x[n-k]
		}
	}
	var ws ToeplitzWorkspace
	got, err := ToeplitzLSFast(&ws, x, y, len(h), 50, 350, 0)
	if err != nil {
		t.Fatal(err)
	}
	vecApprox(t, got, h, 1e-9)
}

func TestToeplitzLSFastErrors(t *testing.T) {
	var ws ToeplitzWorkspace
	x := make([]complex128, 32)
	if _, err := ToeplitzLSFast(&ws, x, x, 0, 0, 32, 0); err == nil {
		t.Fatal("want error for ntaps=0")
	}
	if _, err := ToeplitzLSFast(&ws, x, x, 4, 10, 40, 0); err == nil {
		t.Fatal("want error for stop past len(x)")
	}
	if _, err := ToeplitzLSFast(&ws, x, x, 16, 0, 8, 0); err == nil {
		t.Fatal("want error for window shorter than taps")
	}
}

func TestToeplitzLSFastZeroAllocSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	x := randVec(r, 512)
	y := randVec(r, 512)
	var ws ToeplitzWorkspace
	if _, err := ToeplitzLSFast(&ws, x, y, 32, 0, 320, 1e-12); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ToeplitzLSFast(&ws, x, y, 32, 0, 320, 1e-12); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ToeplitzLSFast allocates %v per run, want 0", allocs)
	}
}

// toeplitzLSOnePass is ToeplitzLSFast as it was before the fit split in
// two: the first Gram row and the right-hand side summed in one pass
// over the window, then factored and solved. The split must match it
// bit for bit.
func toeplitzLSOnePass(x, y []complex128, L, start, stop int, lambda float64) ([]complex128, error) {
	g := NewMatrix(L, L)
	rhs := make([]complex128, L)
	for n := start; n < stop; n++ {
		xn := cmplx.Conj(xat(x, n))
		yn := y[n]
		for j := 0; j < L; j++ {
			v := xat(x, n-j)
			g.Data[j] += xn * v
			rhs[j] += cmplx.Conj(v) * yn
		}
	}
	for i := 1; i < L; i++ {
		g.Data[i*L] = cmplx.Conj(g.Data[i])
	}
	for i := 0; i < L-1; i++ {
		for j := 0; j < L-1; j++ {
			g.Data[(i+1)*L+j+1] = g.Data[i*L+j] +
				cmplx.Conj(xat(x, start-1-i))*xat(x, start-1-j) -
				cmplx.Conj(xat(x, stop-1-i))*xat(x, stop-1-j)
		}
	}
	return SolveHermitian(g, rhs, lambda)
}

// TestToeplitzSplitBitIdentical pins ToeplitzLSFast, and a factor built
// once by ToeplitzFactor solving several right-hand sides, to the
// one-pass fit by Float64bits.
func TestToeplitzSplitBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	same := func(a, b []complex128) bool {
		for i := range a {
			if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
				math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
				return false
			}
		}
		return len(a) == len(b)
	}
	var ws ToeplitzWorkspace
	for _, tc := range []struct{ ntaps, start, stop, n int }{
		{8, 0, 64, 128}, {16, 40, 200, 256}, {32, 64, 384, 512}, {12, 100, 128, 128},
	} {
		x := randVec(r, tc.n)
		f := ToeplitzFactor(x, tc.ntaps, tc.start, tc.stop, 1e-12)
		for range 3 {
			y := randVec(r, tc.n)
			want, err := toeplitzLSOnePass(x, y, tc.ntaps, tc.start, tc.stop, 1e-12)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ToeplitzLSFast(&ws, x, y, tc.ntaps, tc.start, tc.stop, 1e-12)
			if err != nil || !same(got, want) {
				t.Fatalf("%+v: ToeplitzLSFast %v (err %v), one pass %v", tc, got, err, want)
			}
			rhs, err := ToeplitzRHSInto(nil, x, y, tc.ntaps, tc.start, tc.stop)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Solve(rhs); err != nil || !same(rhs, want) {
				t.Fatalf("%+v: memoized factor %v (err %v), one pass %v", tc, rhs, err, want)
			}
		}
	}
}

// TestToeplitzFactorErrors pins that argument errors and a singular
// Gram matrix are the factor's error, returned by every Solve, which
// then leaves the right-hand side as it is.
func TestToeplitzFactorErrors(t *testing.T) {
	x := make([]complex128, 32)
	for _, f := range []*Factor{
		ToeplitzFactor(x, 0, 0, 32, 0),
		ToeplitzFactor(x, 4, 10, 40, 0),
		ToeplitzFactor(x, 16, 0, 8, 0),
		ToeplitzFactor(x, 4, 0, 32, 0), // all-zero input: singular
	} {
		b := []complex128{1, 2, 3, 4}
		if f.Err() == nil || f.Solve(b) != f.Err() || b[0] != 1 || b[3] != 4 {
			t.Fatalf("factor error %v, rhs %v after Solve", f.Err(), b)
		}
	}
	f := ToeplitzFactor(randVec(rand.New(rand.NewSource(16)), 64), 4, 8, 64, 0)
	if err := f.Solve(make([]complex128, 3)); err == nil {
		t.Fatal("want error for a right-hand side of the wrong length")
	}
}
