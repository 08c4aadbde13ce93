package linalg

import (
	"fmt"
	"math/cmplx"
)

// ToeplitzWorkspace holds the scratch a repeated ToeplitzLSFast call
// reuses: the Gram matrix, the right-hand side, and the solve scratch.
// The zero value is ready to use; one workspace serves one goroutine.
type ToeplitzWorkspace struct {
	gram *Matrix
	rhs  []complex128
	sol  []complex128
}

// ToeplitzLSFast solves the same FIR system-identification problem as
// ToeplitzLS — find h with y[n] ≈ (x ⊛ h)[n] over rows n ∈ [start,
// stop) — but builds the normal equations directly from x instead of
// materializing the convolution matrix. The Gram matrix of a Toeplitz
// system obeys the shift recurrence
//
//	G[i+1][j+1] = G[i][j] + x̄[start-1-i]·x[start-1-j] − x̄[stop-1-i]·x[stop-1-j]
//
// so only the first row and column are summed over the window; the
// interior fills in O(L²). Total cost is O(w·L + L³) against the
// direct construction's O(w·L²) — an order of magnitude in the
// windowed link pipeline, where the canceller re-estimates a 32-tap channel
// over a 320-sample silent window on every frame.
//
// The result is numerically equivalent to ToeplitzLS (same normal
// equations, same Cholesky solve) but not bit-identical: the recurrence
// sums in a different order. It is deterministic for fixed inputs. The
// returned slice aliases ws and is valid until the next call on the
// same workspace.
func ToeplitzLSFast(ws *ToeplitzWorkspace, x, y []complex128, ntaps, start, stop int, lambda float64) ([]complex128, error) {
	if ntaps <= 0 {
		return nil, fmt.Errorf("linalg: ntaps must be positive, got %d", ntaps)
	}
	if start < 0 || stop > len(y) || stop > len(x) || start >= stop {
		return nil, fmt.Errorf("linalg: bad sample range [%d,%d) for len(x)=%d len(y)=%d", start, stop, len(x), len(y))
	}
	if stop-start < ntaps {
		return nil, fmt.Errorf("linalg: %d observations for %d taps", stop-start, ntaps)
	}
	L := ntaps
	if ws.gram == nil || ws.gram.Rows != L {
		ws.gram = NewMatrix(L, L)
		ws.rhs = make([]complex128, L)
	}
	g := ws.gram
	for i := range g.Data {
		g.Data[i] = 0
	}
	for i := range ws.rhs {
		ws.rhs[i] = 0
	}
	// xat treats out-of-range indices as zero, matching the Toeplitz
	// matrix construction for rows near the start of x.
	xat := func(n int) complex128 {
		if n < 0 || n >= len(x) {
			return 0
		}
		return x[n]
	}
	// First row (i=0): G[0][j] = Σ_n x̄[n]·x[n-j]; and the RHS
	// b[k] = Σ_n x̄[n-k]·y[n]. One pass over the window covers both.
	for n := start; n < stop; n++ {
		xn := cmplx.Conj(xat(n))
		yn := y[n]
		for j := 0; j < L; j++ {
			v := xat(n - j)
			g.Data[j] += xn * v
			ws.rhs[j] += cmplx.Conj(v) * yn
		}
	}
	// First column by Hermitian symmetry of the full Gram matrix.
	for i := 1; i < L; i++ {
		g.Data[i*L] = cmplx.Conj(g.Data[i])
	}
	// Interior via the shift recurrence, diagonal by diagonal.
	for i := 0; i < L-1; i++ {
		for j := 0; j < L-1; j++ {
			g.Data[(i+1)*L+j+1] = g.Data[i*L+j] +
				cmplx.Conj(xat(start-1-i))*xat(start-1-j) -
				cmplx.Conj(xat(stop-1-i))*xat(stop-1-j)
		}
	}
	sol, err := solveHermitianInto(ws, g, ws.rhs, lambda)
	if err != nil {
		return nil, err
	}
	return sol, nil
}

// solveHermitianInto is SolveHermitian factoring in place of the
// caller-owned matrix (g is destroyed) and reusing ws.sol for the
// solution, so a hot-path solve allocates nothing.
func solveHermitianInto(ws *ToeplitzWorkspace, g *Matrix, b []complex128, lambda float64) ([]complex128, error) {
	n := g.Rows
	if cap(ws.sol) < n {
		ws.sol = make([]complex128, n)
	}
	x := ws.sol[:n]
	copy(x, b)
	if err := SolveHermitianInPlace(g, x, lambda); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveHermitianInPlace is the allocation-free form of SolveHermitian:
// g is factored in place (destroyed) and b is overwritten with the
// solution. Callers that assemble normal equations into a reused
// matrix — the serving hot path's channel estimator — pair this with
// that scratch to solve with zero heap traffic.
func SolveHermitianInPlace(g *Matrix, b []complex128, lambda float64) error {
	n := g.Rows
	if g.Cols != n {
		return fmt.Errorf("linalg: SolveHermitianInPlace on %dx%d matrix", g.Rows, g.Cols)
	}
	if len(b) != n {
		return fmt.Errorf("linalg: rhs length %d for %dx%d system", len(b), n, n)
	}
	for i := 0; i < n; i++ {
		g.Data[i*n+i] += complex(lambda, 0)
	}
	if err := choleskyInPlace(g); err != nil {
		return err
	}
	choleskySolve(g, b)
	return nil
}
