// Package linalg implements the small dense complex linear algebra the
// BackFi receiver needs: Hermitian normal equations and least-squares
// solves for FIR channel estimation (self-interference h_env and the
// combined forward·backward tag channel h_f⊛h_b).
//
// Systems are small (tens of unknowns), so straightforward O(n^3)
// factorizations are the right tool; no blocking or pivatized exotica.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len Rows*Cols, element (r,c) at r*Cols+c
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) complex128 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v complex128) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m·x for a column vector x (len m.Cols).
func (m *Matrix) MulVec(x []complex128) []complex128 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %d vs %d", len(x), m.Cols))
	}
	out := make([]complex128, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var acc complex128
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, v := range row {
			acc += v * x[c]
		}
		out[r] = acc
	}
	return out
}

// ConjTransposeMulVec returns mᴴ·y for a column vector y (len m.Rows).
func (m *Matrix) ConjTransposeMulVec(y []complex128) []complex128 {
	if len(y) != m.Rows {
		panic(fmt.Sprintf("linalg: ConjTransposeMulVec dimension mismatch %d vs %d", len(y), m.Rows))
	}
	out := make([]complex128, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		yr := y[r]
		for c, v := range row {
			out[c] += cmplx.Conj(v) * yr
		}
	}
	return out
}

// Gram returns the Hermitian Gram matrix mᴴ·m (Cols×Cols).
func (m *Matrix) Gram() *Matrix {
	g := NewMatrix(m.Cols, m.Cols)
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for i := 0; i < m.Cols; i++ {
			ci := cmplx.Conj(row[i])
			for j := i; j < m.Cols; j++ {
				g.Data[i*m.Cols+j] += ci * row[j]
			}
		}
	}
	// Fill the lower triangle by Hermitian symmetry.
	for i := 0; i < m.Cols; i++ {
		for j := 0; j < i; j++ {
			g.Data[i*m.Cols+j] = cmplx.Conj(g.Data[j*m.Cols+i])
		}
	}
	return g
}

// SolveHermitian solves A·x = b, where A is Hermitian positive
// definite, via Cholesky factorization A = L·Lᴴ of a scratch copy. A
// small diagonal loading term lambda (>= 0) is added for numerical
// robustness, which is also how ridge-regularized least squares enters.
func SolveHermitian(a *Matrix, b []complex128, lambda float64) ([]complex128, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("linalg: SolveHermitian on %dx%d matrix", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d for %dx%d system", len(b), n, n)
	}
	x := make([]complex128, n)
	copy(x, b)
	if err := NewFactor(a.Clone(), lambda).Solve(x); err != nil {
		return nil, err
	}
	return x, nil
}

// choleskyInPlace factors the Hermitian positive-definite matrix in
// place: on return the lower triangle of l holds L with A = L·Lᴴ.
func choleskyInPlace(l *Matrix) error {
	n := l.Rows
	for j := 0; j < n; j++ {
		d := real(l.Data[j*n+j])
		for k := 0; k < j; k++ {
			v := l.Data[j*n+k]
			d -= real(v)*real(v) + imag(v)*imag(v)
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("linalg: matrix not positive definite at pivot %d (d=%g)", j, d)
		}
		sq := math.Sqrt(d)
		l.Data[j*n+j] = complex(sq, 0)
		for i := j + 1; i < n; i++ {
			v := l.Data[i*n+j]
			for k := 0; k < j; k++ {
				v -= l.Data[i*n+k] * cmplx.Conj(l.Data[j*n+k])
			}
			l.Data[i*n+j] = v / complex(sq, 0)
		}
	}
	return nil
}

// LeastSquares solves min_x ||A·x - b||² via the normal equations
// (Aᴴ A + lambda·I) x = Aᴴ b. A must have Rows >= Cols.
func LeastSquares(a *Matrix, b []complex128, lambda float64) ([]complex128, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: underdetermined system %dx%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("linalg: rhs length %d for %d rows", len(b), a.Rows)
	}
	return SolveHermitian(a.Gram(), a.ConjTransposeMulVec(b), lambda)
}

// ToeplitzLS solves the FIR system-identification problem: given input x
// and observed output y ≈ (x ⊛ h)[n] for a causal FIR h of ntaps taps,
// it builds the convolution (Toeplitz) matrix over the sample range
// [start, stop) and returns the least-squares tap estimate.
//
// Rows with indices n in [start, stop) impose
//
//	y[n] = sum_k h[k] x[n-k]
//
// with out-of-range x treated as zero. This is the estimator used both
// for self-interference (h_env) and the combined tag channel (h_f⊛h_b,
// with x pre-multiplied by the known preamble phase).
func ToeplitzLS(x, y []complex128, ntaps, start, stop int, lambda float64) ([]complex128, error) {
	if ntaps <= 0 {
		return nil, fmt.Errorf("linalg: ntaps must be positive, got %d", ntaps)
	}
	if start < 0 || stop > len(y) || stop > len(x) || start >= stop {
		return nil, fmt.Errorf("linalg: bad sample range [%d,%d) for len(x)=%d len(y)=%d", start, stop, len(x), len(y))
	}
	rows := stop - start
	if rows < ntaps {
		return nil, fmt.Errorf("linalg: %d observations for %d taps", rows, ntaps)
	}
	a := NewMatrix(rows, ntaps)
	for r := 0; r < rows; r++ {
		n := start + r
		for k := 0; k < ntaps; k++ {
			if idx := n - k; idx >= 0 {
				a.Data[r*ntaps+k] = x[idx]
			}
		}
	}
	return LeastSquares(a, y[start:stop], lambda)
}

// Residual returns b - A·x, useful for checking fit quality.
func Residual(a *Matrix, x, b []complex128) []complex128 {
	ax := a.MulVec(x)
	out := make([]complex128, len(b))
	for i := range b {
		out[i] = b[i] - ax[i]
	}
	return out
}
