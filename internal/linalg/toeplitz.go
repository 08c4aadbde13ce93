package linalg

import (
	"fmt"
	"math/cmplx"
)

// Factor is the Cholesky factor L of a ridge-loaded least-squares Gram
// matrix, G + λ·I = L·Lᴴ, or the error that kept G + λ·I from having
// one. A fit whose Gram matrix depends only on known data factors it
// once and solves each right-hand side against it; a Factor is never
// written after it is built, so one may serve many goroutines. It
// keeps only L's lower triangle, packed row by row.
type Factor struct {
	n   int
	l   []complex128 // L[i][k], k ≤ i, at i(i+1)/2 + k
	err error
}

// NewFactor factors g + λ·I, overwriting g. A matrix that is not
// positive definite gives a factor whose Err (and every Solve) reports
// it.
func NewFactor(g *Matrix, lambda float64) *Factor {
	f := new(Factor)
	f.factor(g, lambda)
	return f
}

// factor factors g + λ·I in place and packs its lower triangle into f,
// reusing f's storage.
func (f *Factor) factor(g *Matrix, lambda float64) {
	n := g.Rows
	for i := 0; i < n; i++ {
		g.Data[i*n+i] += complex(lambda, 0)
	}
	f.n, f.err = n, choleskyInPlace(g)
	if f.err != nil {
		return
	}
	f.l = resize(f.l, n*(n+1)/2)
	for i := 0; i < n; i++ {
		copy(f.l[i*(i+1)/2:], g.Data[i*n:i*n+i+1])
	}
}

// Err reports why the factor could not be built, nil when it solves.
func (f *Factor) Err() error { return f.err }

// Len is the number of entries in f's packed triangle, n(n+1)/2, or 0
// for a factor that failed.
func (f *Factor) Len() int { return len(f.l) }

// CopyInto returns f with its triangle copied into dst[:Len()], so a
// memo keeping many factors can pack them into shared chunks.
func (f *Factor) CopyInto(dst []complex128) Factor {
	c := *f
	c.l = dst[:len(f.l):len(f.l)]
	copy(c.l, f.l)
	return c
}

// Solve overwrites b with the solution h of (G + λ·I)·h = b: forward
// then back substitution, in place, allocating nothing. On a factor
// that failed it returns Err and leaves b as it is.
func (f *Factor) Solve(b []complex128) error {
	if f.err != nil {
		return f.err
	}
	n, l := f.n, f.l
	if len(b) != n {
		return fmt.Errorf("linalg: rhs length %d for %dx%d system", len(b), n, n)
	}
	for i := 0; i < n; i++ {
		row := l[i*(i+1)/2:]
		acc := b[i]
		for k := 0; k < i; k++ {
			acc -= row[k] * b[k]
		}
		b[i] = acc / row[i]
	}
	for i := n - 1; i >= 0; i-- {
		acc := b[i]
		for k := i + 1; k < n; k++ {
			acc -= cmplx.Conj(l[k*(k+1)/2+i]) * b[k]
		}
		b[i] = acc / l[i*(i+1)/2+i]
	}
	return nil
}

// ToeplitzWorkspace holds the scratch a repeated ToeplitzLSFast call
// reuses: the Gram matrix and its factor, the right-hand side, and the
// solution. The zero value is ready to use; one workspace serves one
// goroutine.
type ToeplitzWorkspace struct {
	gram *Matrix
	f    Factor
	rhs  []complex128
	sol  []complex128
}

// ToeplitzLSFast solves the same FIR system-identification problem as
// ToeplitzLS — find h with y[n] ≈ (x ⊛ h)[n] over rows n ∈ [start,
// stop) — but builds the normal equations directly from x instead of
// materializing the convolution matrix (toeplitzGram). It is the two
// halves of the fit in sequence: the Gram matrix of x and its factor,
// then the right-hand side Σ x̄·y and the solve against that factor. A
// fit whose input never changes builds the first half once
// (ToeplitzFactor) and repeats only the second (ToeplitzRHSInto,
// Factor.Solve), bit for bit the same.
//
// The result is numerically equivalent to ToeplitzLS (same normal
// equations, same Cholesky solve) but not bit-identical: the recurrence
// sums in a different order. It is deterministic for fixed inputs. The
// returned slice aliases ws and is valid until the next call on the
// same workspace.
func ToeplitzLSFast(ws *ToeplitzWorkspace, x, y []complex128, ntaps, start, stop int, lambda float64) ([]complex128, error) {
	if err := toeplitzArgs(ntaps, start, stop, len(x), len(y)); err != nil {
		return nil, err
	}
	if ws.gram == nil || ws.gram.Rows != ntaps {
		ws.gram = NewMatrix(ntaps, ntaps)
	}
	toeplitzGram(ws.gram, x, start, stop)
	ws.f.factor(ws.gram, lambda)
	ws.rhs, _ = ToeplitzRHSInto(ws.rhs, x, y, ntaps, start, stop) // arguments checked above
	ws.sol = resize(ws.sol, ntaps)
	copy(ws.sol, ws.rhs)
	if err := ws.f.Solve(ws.sol); err != nil {
		return nil, err
	}
	return ws.sol, nil
}

// ToeplitzFactor factors the ridge-loaded Gram matrix of the Toeplitz
// system ToeplitzLSFast solves: rows n ∈ [start, stop) of x's
// ntaps-tap convolution matrix. It reads only x. Argument errors (no
// taps, a window outside x, fewer rows than taps) are the factor's Err.
func ToeplitzFactor(x []complex128, ntaps, start, stop int, lambda float64) *Factor {
	if err := toeplitzArgs(ntaps, start, stop, len(x), len(x)); err != nil {
		return &Factor{err: err}
	}
	g := NewMatrix(ntaps, ntaps)
	toeplitzGram(g, x, start, stop)
	return NewFactor(g, lambda)
}

// ToeplitzRHSInto writes the right-hand side of ToeplitzLSFast's normal
// equations, b[k] = Σ_n x̄[n-k]·y[n] over n ∈ [start, stop), into dst
// (grown to ntaps) and returns it.
func ToeplitzRHSInto(dst, x, y []complex128, ntaps, start, stop int) ([]complex128, error) {
	if err := toeplitzArgs(ntaps, start, stop, len(x), len(y)); err != nil {
		return dst, err
	}
	dst = resize(dst, ntaps)
	clear(dst)
	for n := start; n < stop; n++ {
		yn := y[n]
		for j := range dst {
			dst[j] += cmplx.Conj(xat(x, n-j)) * yn
		}
	}
	return dst, nil
}

// toeplitzArgs checks a fit of ntaps taps over rows [start, stop) of
// an input of nx samples and an output of ny.
func toeplitzArgs(ntaps, start, stop, nx, ny int) error {
	if ntaps <= 0 {
		return fmt.Errorf("linalg: ntaps must be positive, got %d", ntaps)
	}
	if start < 0 || stop > ny || stop > nx || start >= stop {
		return fmt.Errorf("linalg: bad sample range [%d,%d) for len(x)=%d len(y)=%d", start, stop, nx, ny)
	}
	if stop-start < ntaps {
		return fmt.Errorf("linalg: %d observations for %d taps", stop-start, ntaps)
	}
	return nil
}

// xat is x[n], zero out of range, matching the Toeplitz matrix
// construction for rows near the start of x.
func xat(x []complex128, n int) complex128 {
	if n < 0 || n >= len(x) {
		return 0
	}
	return x[n]
}

// toeplitzGram fills g with the Gram matrix of x's convolution matrix
// over rows [start, stop), using the shift recurrence of a Toeplitz
// system
//
//	G[i+1][j+1] = G[i][j] + x̄[start-1-i]·x[start-1-j] − x̄[stop-1-i]·x[stop-1-j]
//
// so only the first row is summed over the window and the rest fills
// in O(L²): O(w·L) against the direct construction's O(w·L²), an order
// of magnitude for the canceller's 32-tap fit over a 320-sample silent
// window.
func toeplitzGram(g *Matrix, x []complex128, start, stop int) {
	L := g.Rows
	clear(g.Data)
	// First row (i=0): G[0][j] = Σ_n x̄[n]·x[n-j].
	for n := start; n < stop; n++ {
		xn := cmplx.Conj(xat(x, n))
		for j := 0; j < L; j++ {
			g.Data[j] += xn * xat(x, n-j)
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
				cmplx.Conj(xat(x, start-1-i))*xat(x, start-1-j) -
				cmplx.Conj(xat(x, stop-1-i))*xat(x, stop-1-j)
		}
	}
}

func resize(b []complex128, n int) []complex128 {
	if cap(b) < n {
		return make([]complex128, n)
	}
	return b[:n]
}
