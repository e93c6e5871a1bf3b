package linalg

import (
	"fmt"
	"math/cmplx"
)

// CMatrix is a dense, row-major complex matrix used by small-signal AC
// analysis, where conductance and susceptance stamps combine into a single
// complex system per frequency point.
type CMatrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewCMatrix returns a zeroed rows×cols complex matrix. It panics on
// non-positive dimensions.
func NewCMatrix(rows, cols int) *CMatrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &CMatrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// Add accumulates v into element (i, j).
func (m *CMatrix) Add(i, j int, v complex128) { m.Data[i*m.Cols+j] += v }

// Zero clears every element in place.
func (m *CMatrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// CSolveInPlace solves A·x = b without allocating: a is overwritten with
// factorisation intermediates and bx is overwritten with the solution. The
// AC sweep uses it to reuse one complex system across frequency points.
func CSolveInPlace(a *CMatrix, bx []complex128) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: CSolve needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(bx) != a.Rows {
		return fmt.Errorf("linalg: CSolve dimension mismatch %d vs %d", len(bx), a.Rows)
	}
	n := a.Rows
	lu := a.Data
	x := bx
	for k := 0; k < n; k++ {
		p := k
		maxAbs := cmplx.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := cmplx.Abs(lu[i*n+k]); v > maxAbs {
				maxAbs = v
				p = i
			}
		}
		if maxAbs == 0 {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[k*n+j], lu[p*n+j] = lu[p*n+j], lu[k*n+j]
			}
			x[k], x[p] = x[p], x[k]
		}
		piv := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			f := lu[i*n+k] / piv
			if f == 0 {
				continue
			}
			lu[i*n+k] = 0
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= f * lu[k*n+j]
			}
			x[i] -= f * x[k]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= lu[i*n+j] * x[j]
		}
		x[i] = s / lu[i*n+i]
	}
	return nil
}
