// Package sparse implements the sparse linear-algebra kernel that changes
// the solver's complexity class: a compressed-column matrix with a frozen
// stamping pattern and an LU factorisation with Markowitz-style threshold
// pivoting (value-aware symbolic analysis once per pattern, allocation-free
// numeric refactorisation per Newton iteration). MNA matrices from the
// paper's Fig. 3-class testbenches are >90 % zeros, so the dense LU in
// internal/linalg — O(n³) per factor — dominates every large workload
// (Section 2 mismatch Monte Carlo at scale, Section 5 resilience
// campaigns); exploiting the sparsity keeps the factor cost near O(nnz)
// and opens netlists far beyond the paper's testbench sizes. The API
// mirrors the dense FactorInto/SolveInto workspace idiom so the circuit
// solver can switch backends without changing its Newton loop.
package sparse

import (
	"fmt"
	"sort"
)

// Matrix is a compressed-sparse-column (CSC) real matrix with a frozen
// pattern: the set of structurally-nonzero positions is fixed at Freeze
// time, while the values are rewritten freely (the circuit solver stamps a
// fresh set of values into the same pattern on every Newton iteration).
// Vals may be re-pointed at a caller-owned slice of length NNZ() — that is
// how the solver keeps a linear-stamp baseline and an iteration copy
// sharing one pattern.
type Matrix struct {
	// N is the (square) dimension.
	N int
	// ColPtr has length N+1; column j's entries live in
	// RowIdx[ColPtr[j]:ColPtr[j+1]], sorted by row.
	ColPtr []int32
	// RowIdx holds the row index of every stored entry.
	RowIdx []int32
	// Vals holds the entry values, aligned with RowIdx.
	Vals []float64
}

// NNZ returns the number of stored (structurally nonzero) entries.
func (m *Matrix) NNZ() int { return len(m.RowIdx) }

// Density returns NNZ/N² — the fraction of stored positions.
func (m *Matrix) Density() float64 {
	if m.N == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.N) * float64(m.N))
}

// Zero clears every stored value in place; the pattern is untouched.
func (m *Matrix) Zero() {
	for i := range m.Vals {
		m.Vals[i] = 0
	}
}

// slot returns the value index of position (i, j), or -1 when the position
// is not part of the pattern.
func (m *Matrix) slot(i, j int) int {
	lo, hi := int(m.ColPtr[j]), int(m.ColPtr[j+1])
	r := int32(i)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.RowIdx[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(m.ColPtr[j+1]) && m.RowIdx[lo] == r {
		return lo
	}
	return -1
}

// Add accumulates v into position (i, j) — the stamp operation of nodal
// analysis. The position must be part of the frozen pattern; stamping an
// absent position is a programming error (the pattern discovery pass
// stamps a superset of every analysis mode) and panics.
func (m *Matrix) Add(i, j int, v float64) {
	s := m.slot(i, j)
	if s < 0 {
		panic(fmt.Sprintf("sparse: stamp outside frozen pattern at (%d,%d)", i, j))
	}
	m.Vals[s] += v
}

// MulVecInto computes y = M·x without allocating. y and x must have length
// N and must not alias.
func (m *Matrix) MulVecInto(y, x []float64) {
	if len(x) != m.N || len(y) != m.N {
		panic(fmt.Sprintf("sparse: MulVecInto dimension mismatch y=%d x=%d vs %d", len(y), len(x), m.N))
	}
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < m.N; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			y[m.RowIdx[p]] += m.Vals[p] * xj
		}
	}
}

// Builder accumulates a sparsity pattern (and values) in scatter form
// before freezing it into a Matrix. It satisfies the same Add/Zero stamp
// contract as Matrix, so a circuit can run its pattern-discovery stamping
// pass directly against a Builder.
type Builder struct {
	n    int
	cols []map[int32]float64
}

// NewBuilder returns a builder for an n×n pattern. It panics on
// non-positive n.
func NewBuilder(n int) *Builder {
	if n <= 0 {
		panic(fmt.Sprintf("sparse: invalid dimension %d", n))
	}
	return &Builder{n: n, cols: make([]map[int32]float64, n)}
}

// Add accumulates v at (i, j), creating the position on first touch.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || j < 0 || i >= b.n || j >= b.n {
		panic(fmt.Sprintf("sparse: Builder.Add out of range (%d,%d) for n=%d", i, j, b.n))
	}
	c := b.cols[j]
	if c == nil {
		c = make(map[int32]float64, 8)
		b.cols[j] = c
	}
	c[int32(i)] += v
}

// Zero clears every accumulated value but keeps the discovered pattern.
func (b *Builder) Zero() {
	for _, c := range b.cols {
		for k := range c {
			c[k] = 0
		}
	}
}

// Freeze converts the accumulated pattern into a CSC Matrix with sorted
// row indices. The builder remains usable afterwards.
func (b *Builder) Freeze() *Matrix {
	m := &Matrix{N: b.n, ColPtr: make([]int32, b.n+1)}
	nnz := 0
	for _, c := range b.cols {
		nnz += len(c)
	}
	m.RowIdx = make([]int32, 0, nnz)
	m.Vals = make([]float64, 0, nnz)
	for j := 0; j < b.n; j++ {
		m.ColPtr[j] = int32(len(m.RowIdx))
		c := b.cols[j]
		rows := make([]int32, 0, len(c))
		for r := range c {
			rows = append(rows, r)
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a] < rows[b] })
		for _, r := range rows {
			m.RowIdx = append(m.RowIdx, r)
			m.Vals = append(m.Vals, c[r])
		}
	}
	m.ColPtr[b.n] = int32(len(m.RowIdx))
	return m
}
