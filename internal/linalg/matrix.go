// Package linalg provides the dense linear-algebra kernels required by the
// circuit simulator: real and complex matrices with LU factorisation and
// solve. Circuit matrices from modified nodal analysis are small (tens to a
// few hundred unknowns), so a dense partial-pivoting LU is both simple and
// fast enough; no external BLAS is used. Every experiment in the paper —
// the Section 2 mismatch Monte Carlo, the Section 3 aging re-simulations,
// the Section 4 EMI transients — bottoms out in these factor/solve calls,
// which is why the Workspace variants are kept allocation-free and
// instrumented (see metrics.go).
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSingular is returned when a factorisation encounters an (numerically)
// singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// Matrix is a dense, row-major real matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix. It panics on non-positive
// dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Add accumulates v into element (i, j); this is the "stamp" operation of
// nodal analysis.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Zero clears every element in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec returns m·x. It panics on dimension mismatch.
//
// test seam: the sparse tests check their matrix-vector product against
// it.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %d vs %d", len(x), m.Cols))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MulVecInto computes y = m·x into caller-provided y without allocating.
// y and x must not alias. It panics on dimension mismatch.
//
// test seam: the sparse package's TestDenseMulVecIntoMatchesMulVec pins
// it to MulVec with zero allocations.
func (m *Matrix) MulVecInto(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVecInto dimension mismatch y=%d x=%d vs %dx%d", len(y), len(x), m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "% 12.5g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// LU is a partial-pivoting LU factorisation P·A = L·U of a square matrix,
// reusable for multiple right-hand sides. The zero value is ready to use
// with FactorInto, which reuses the internal storage across calls — the
// allocation-free path the circuit solver workspaces rely on.
type LU struct {
	n     int
	lu    []float64
	pivot []int
}

// Factor computes the LU factorisation of square matrix a. The input is not
// modified. It returns ErrSingular when a pivot underflows.
func Factor(a *Matrix) (*LU, error) {
	f := &LU{}
	if err := f.FactorInto(a); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorInto computes the LU factorisation of square matrix a into f,
// reusing f's internal buffers when the capacity suffices (it allocates
// only when f has never factored a matrix this large). The input is not
// modified. It returns ErrSingular when a pivot underflows; the
// factorisation is unusable after any error.
func (f *LU) FactorInto(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("linalg: Factor needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	f.n = n
	if cap(f.lu) < n*n {
		f.lu = make([]float64, n*n)
		f.pivot = make([]int, n)
	}
	f.lu = f.lu[:n*n]
	f.pivot = f.pivot[:n]
	copy(f.lu, a.Data)
	lu := f.lu
	for i := range f.pivot {
		f.pivot[i] = i
	}
	for k := 0; k < n; k++ {
		// Find pivot row.
		p := k
		maxAbs := math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > maxAbs {
				maxAbs = v
				p = i
			}
		}
		if maxAbs == 0 || math.IsNaN(maxAbs) {
			return ErrSingular
		}
		if p != k {
			rowK := lu[k*n : (k+1)*n]
			rowP := lu[p*n : (p+1)*n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			f.pivot[k], f.pivot[p] = f.pivot[p], f.pivot[k]
		}
		pivVal := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			lik := lu[i*n+k] / pivVal
			lu[i*n+k] = lik
			if lik == 0 {
				continue
			}
			rowI := lu[i*n : (i+1)*n]
			rowK := lu[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= lik * rowK[j]
			}
		}
	}
	return nil
}

// Solve returns x with A·x = b. b is not modified.
func (f *LU) Solve(b []float64) []float64 {
	x := make([]float64, f.n)
	f.SolveInto(x, b)
	return x
}

// SolveInto solves A·x = b into the caller-provided x without allocating.
// x and b must both have length n and must not alias each other; b is not
// modified.
func (f *LU) SolveInto(x, b []float64) {
	if len(b) != f.n || len(x) != f.n {
		panic(fmt.Sprintf("linalg: SolveInto dimension mismatch x=%d b=%d vs %d", len(x), len(b), f.n))
	}
	n := f.n
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward substitution with unit-lower L.
	for i := 1; i < n; i++ {
		s := x[i]
		row := f.lu[i*n : i*n+i]
		for j, v := range row {
			s -= v * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s / f.lu[i*n+i]
	}
}

// Solve factors a and solves A·x = b in one call. Use Factor + LU.Solve to
// reuse a factorisation across right-hand sides.
//
// test seam: the dense reference solution the sparse LU tests and
// FuzzSparseLU compare against.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// VecNormInf returns max |x_i| of a vector, 0 for an empty one.
func VecNormInf(x []float64) float64 {
	best := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// VecSubInto computes dst = a - b element-wise without allocating. dst may
// alias a or b. It panics on length mismatch.
func VecSubInto(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("linalg: VecSubInto length mismatch")
	}
	for i := range a {
		dst[i] = a[i] - b[i]
	}
}
