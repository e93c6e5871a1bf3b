package sparse

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrSingular is returned when the matrix is structurally or numerically
// singular — no acceptable pivot exists at some elimination step.
var ErrSingular = errors.New("sparse: singular matrix")

// errStalePivots tags a numeric refactorisation whose recorded pivot
// sequence has degenerated (a pivot position now holds ~0). FactorInto
// recovers from it internally by re-running the analysis.
var errStalePivots = errors.New("sparse: stale pivot sequence")

// defaultPivotTol is the Markowitz threshold-pivoting parameter: a pivot
// candidate must be at least this fraction of its column's largest
// magnitude. 1e-3 is the classical SPICE sparse-package default — loose
// enough to keep fill-in low, tight enough for MNA conditioning.
const defaultPivotTol = 1e-3

// LU is a sparse LU factorisation P·A·Q = L·U with Markowitz-style
// threshold pivoting. The zero value is ready to use: the first FactorInto
// runs the full value-aware analysis (pivot-order selection plus exact
// fill-in bookkeeping over slice-based column and row lists, allocating),
// and every later FactorInto on the same pattern is a fixed-structure
// numeric refactorisation that performs zero heap allocations — the
// property the circuit solver's Newton loop relies on, mirroring the
// dense linalg.LU workspace idiom. If drifting values
// make a recorded pivot degenerate, FactorInto transparently re-runs the
// analysis; it returns ErrSingular only when the matrix truly admits no
// pivot. An LU is not safe for concurrent use.
type LU struct {
	n int
	// PivotTol overrides the threshold-pivoting tolerance (0 = default).
	PivotTol float64

	// Pivot order: prow[k]/pcol[k] are the original row/column eliminated
	// at step k. rowPos/colPos are the inverse permutations.
	prow, pcol     []int32
	rowPos, colPos []int32

	// L is column-major with an implicit unit diagonal: column k's
	// subdiagonal entries (permuted rows > k) live in
	// lRow/lVal[lPtr[k]:lPtr[k+1]], sorted.
	lPtr []int32
	lRow []int32
	lVal []float64

	// U is column-major, strictly above the diagonal (permuted rows < j),
	// sorted; the diagonal is stored separately in uDiag.
	uPtr  []int32
	uRow  []int32
	uVal  []float64
	uDiag []float64

	// A-scatter: the input matrix's entries mapped into permuted
	// coordinates, column-major in pivot order: entry t scatters
	// a.Vals[aSlot[t]] into work position aRow[t] while processing
	// permuted column j for t in [aPtr[j], aPtr[j+1]).
	aPtr  []int32
	aRow  []int32
	aSlot []int32

	// w is the dense work/solve vector (zero outside the active column's
	// pattern between uses).
	w []float64

	analyzed bool
	patNNZ   int // pattern size the analysis was built for
}

// pivotTol returns the effective threshold-pivoting tolerance.
func (f *LU) pivotTol() float64 {
	if f.PivotTol > 0 {
		return f.PivotTol
	}
	return defaultPivotTol
}

// Fill returns the number of stored factor entries (L below the diagonal,
// U above, plus the n pivots) after an analysis; 0 before one.
func (f *LU) Fill() int {
	if !f.analyzed {
		return 0
	}
	return len(f.lRow) + len(f.uRow) + f.n
}

// FactorInto factorises a. The first call (or a call after the pattern
// changed, or after the recorded pivots went numerically stale) runs the
// full Markowitz analysis; steady-state calls are allocation-free numeric
// refactorisations over the recorded structure. The input matrix is not
// modified. It returns ErrSingular when no acceptable pivot exists.
func (f *LU) FactorInto(a *Matrix) error {
	if f.analyzed && f.n == a.N && f.patNNZ == a.NNZ() {
		err := f.refactor(a)
		if err == nil {
			return nil
		}
		if !errors.Is(err, errStalePivots) {
			return err
		}
		// Stale pivot order: fall through to a fresh analysis.
	}
	return f.Analyze(a)
}

// SolveInto solves A·x = b into caller-provided x without allocating,
// using the factorisation from the last successful FactorInto. x and b
// must have length n and must not alias; b is not modified.
func (f *LU) SolveInto(x, b []float64) {
	if !f.analyzed {
		panic("sparse: SolveInto before a successful FactorInto")
	}
	if len(x) != f.n || len(b) != f.n {
		panic(fmt.Sprintf("sparse: SolveInto dimension mismatch x=%d b=%d vs %d", len(x), len(b), f.n))
	}
	n := f.n
	w := f.w
	// Permute: z = P·b.
	for k := 0; k < n; k++ {
		w[k] = b[f.prow[k]]
	}
	// Forward substitution with unit-lower L (column-oriented).
	for k := 0; k < n; k++ {
		zk := w[k]
		if zk == 0 {
			continue
		}
		for p := f.lPtr[k]; p < f.lPtr[k+1]; p++ {
			w[f.lRow[p]] -= f.lVal[p] * zk
		}
	}
	// Back substitution with U (column-oriented), un-permuting into x.
	for j := n - 1; j >= 0; j-- {
		yj := w[j] / f.uDiag[j]
		w[j] = yj
		x[f.pcol[j]] = yj
		if yj != 0 {
			for p := f.uPtr[j]; p < f.uPtr[j+1]; p++ {
				w[f.uRow[p]] -= f.uVal[p] * yj
			}
		}
	}
}

// Solve returns x with A·x = b, allocating the result.
func (f *LU) Solve(b []float64) []float64 {
	x := make([]float64, f.n)
	f.SolveInto(x, b)
	return x
}

// refactor recomputes the numeric factors over the recorded structure via
// a left-looking (Gilbert–Peierls style) pass with the fill pattern known
// in advance. Zero allocations in steady state.
func (f *LU) refactor(a *Matrix) error {
	n := f.n
	w := f.w
	for j := 0; j < n; j++ {
		// Zero the structural positions of permuted column j, then scatter
		// A's column into them.
		for p := f.uPtr[j]; p < f.uPtr[j+1]; p++ {
			w[f.uRow[p]] = 0
		}
		w[j] = 0
		for p := f.lPtr[j]; p < f.lPtr[j+1]; p++ {
			w[f.lRow[p]] = 0
		}
		for t := f.aPtr[j]; t < f.aPtr[j+1]; t++ {
			w[f.aRow[t]] += a.Vals[f.aSlot[t]]
		}
		// Apply the updates of every U entry's column in ascending order;
		// the recorded fill pattern is closed under reachability, so each
		// w[k] is final before its column is applied.
		for p := f.uPtr[j]; p < f.uPtr[j+1]; p++ {
			k := f.uRow[p]
			uv := w[k]
			f.uVal[p] = uv
			if uv == 0 {
				continue
			}
			for q := f.lPtr[k]; q < f.lPtr[k+1]; q++ {
				w[f.lRow[q]] -= f.lVal[q] * uv
			}
		}
		piv := w[j]
		if piv == 0 || math.IsNaN(piv) {
			f.clearColumn(j)
			return fmt.Errorf("%w: pivot %d", errStalePivots, j)
		}
		f.uDiag[j] = piv
		for p := f.lPtr[j]; p < f.lPtr[j+1]; p++ {
			f.lVal[p] = w[f.lRow[p]] / piv
		}
		f.clearColumn(j)
	}
	return nil
}

// clearColumn zeroes the work vector at column j's structural positions so
// w stays all-zero between columns.
func (f *LU) clearColumn(j int) {
	w := f.w
	for p := f.uPtr[j]; p < f.uPtr[j+1]; p++ {
		w[f.uRow[p]] = 0
	}
	w[j] = 0
	for p := f.lPtr[j]; p < f.lPtr[j+1]; p++ {
		w[f.lRow[p]] = 0
	}
}

// Analyze runs the full value-aware Markowitz factorisation of a: at every
// step it picks the acceptable pivot (|v| ≥ tol·colmax) with the smallest
// Markowitz count (r−1)(c−1), ties broken deterministically, tracking the
// exact fill-in. It records the pivot order, the factor structure and the
// numeric factors, so a successful Analyze leaves the LU ready for
// SolveInto and primes the allocation-free refactor path.
//
// The active submatrix is held in slices: each column's entries as
// unordered (row, value) lists, each row's active columns as an unordered
// list, so a row's Markowitz count is its list's length. The pivot choice
// depends on no list order: columns are scanned in ascending index, the
// first column reaching the lowest cost wins and a zero cost stops the
// scan; within a column the candidate with the fewest row entries wins,
// then the larger magnitude, then the smaller row index.
func (f *LU) Analyze(a *Matrix) error {
	n := a.N
	tol := f.pivotTol()
	nnz := a.NNZ()

	// Active submatrix. Every list starts as a capacity-capped window of
	// one shared backing array, so fill-in that outgrows a window moves
	// only that list.
	colRow := make([][]int32, n)
	colVal := make([][]float64, n)
	rowsBack := append([]int32(nil), a.RowIdx...)
	valsBack := append([]float64(nil), a.Vals...)
	for j := 0; j < n; j++ {
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		colRow[j] = rowsBack[lo:hi:hi]
		colVal[j] = valsBack[lo:hi:hi]
	}
	rowCol := make([][]int32, n)
	rowStart := make([]int32, n+1)
	for _, i := range a.RowIdx {
		rowStart[i+1]++
	}
	for i := 0; i < n; i++ {
		rowStart[i+1] += rowStart[i]
	}
	colsBack := make([]int32, nnz)
	for i := 0; i < n; i++ {
		rowCol[i] = colsBack[rowStart[i]:rowStart[i]:rowStart[i+1]]
	}
	for j := 0; j < n; j++ {
		for _, i := range a.RowIdx[a.ColPtr[j]:a.ColPtr[j+1]] {
			rowCol[i] = append(rowCol[i], int32(j))
		}
	}

	colActive := make([]bool, n)
	for i := range colActive {
		colActive[i] = true
	}
	// pos[r] is row r's index in the column being updated, -1 otherwise;
	// val[r] holds the pivot column's value at row r while it is read.
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	val := make([]float64, n)

	prow := make([]int32, n)
	pcol := make([]int32, n)
	// Factor structure in original coordinates, per elimination step: L
	// column k is lRows/lVals[lStep[k]:lStep[k+1]] (rows ascending), U row
	// k is uCols/uVals[uStep[k]:uStep[k+1]] (columns ascending).
	lStep := make([]int32, n+1)
	uStep := make([]int32, n+1)
	var lRows, uCols []int32
	var lVals, uVals []float64
	udiag := make([]float64, n)

	for k := 0; k < n; k++ {
		// Pivot search: among active entries that pass the column
		// threshold, minimise the Markowitz count; scan columns in
		// ascending index so ties resolve deterministically.
		bestCost := int64(math.MaxInt64)
		bestRow, bestCol := int32(-1), int32(-1)
		for j := 0; j < n; j++ {
			if !colActive[j] {
				continue
			}
			r, cost := columnPivot(colRow[j], colVal[j], rowCol, tol)
			if r < 0 {
				continue
			}
			if cost < bestCost || (cost == bestCost && bestCol < 0) {
				bestCost, bestRow, bestCol = cost, r, int32(j)
			}
			if bestCost == 0 {
				break // cannot do better than zero fill
			}
		}
		if bestCol < 0 {
			f.analyzed = false
			return fmt.Errorf("%w (no acceptable pivot at step %d of %d)", ErrSingular, k, n)
		}
		pi, pj := bestRow, bestCol
		prow[k], pcol[k] = pi, pj

		// L column k: the pivot column's other rows, ascending, divided
		// by the pivot.
		var piv float64
		l0 := len(lRows)
		for t, r := range colRow[pj] {
			if r == pi {
				piv = colVal[pj][t]
				continue
			}
			val[r] = colVal[pj][t]
			lRows = append(lRows, r)
		}
		udiag[k] = piv
		lr := lRows[l0:]
		slices.Sort(lr)
		for _, r := range lr {
			lVals = append(lVals, val[r]/piv)
		}
		lv := lVals[l0:]
		lStep[k+1] = int32(len(lRows))

		// U row k: the pivot row's other columns, ascending. Each one
		// gives up its pivot-row entry as the U value and takes the
		// rank-1 update, with exact fill tracking.
		u0 := len(uCols)
		for _, c := range rowCol[pi] {
			if c != pj {
				uCols = append(uCols, c)
			}
		}
		uc := uCols[u0:]
		slices.Sort(uc)
		for _, c := range uc {
			rs, vs := colRow[c], colVal[c]
			for t, r := range rs {
				pos[r] = int32(t)
			}
			tp := pos[pi]
			u := vs[tp]
			uVals = append(uVals, u)
			for t, r := range lr {
				if p := pos[r]; p >= 0 {
					vs[p] = vs[p] - lv[t]*u
					continue
				}
				// Fill-in starts from +0: 0 − l·u, unlike −(l·u), keeps a
				// +0 product +0.
				var old float64
				rs = append(rs, r)
				vs = append(vs, old-lv[t]*u)
				rowCol[r] = append(rowCol[r], c)
			}
			for _, r := range colRow[c] {
				pos[r] = -1
			}
			// Deactivate the pivot row in this column.
			last := len(rs) - 1
			rs[tp], vs[tp] = rs[last], vs[last]
			colRow[c], colVal[c] = rs[:last], vs[:last]
		}
		uStep[k+1] = int32(len(uCols))

		// Deactivate the pivot column in the L rows, and drop the pivot
		// row and column.
		for _, r := range lr {
			cs := rowCol[r]
			last := len(cs) - 1
			for t, c := range cs {
				if c == pj {
					cs[t] = cs[last]
					break
				}
			}
			rowCol[r] = cs[:last]
		}
		colActive[pj] = false
		colRow[pj], colVal[pj] = nil, nil
		rowCol[pi] = nil
	}

	// Permutation inverses.
	rowPos := make([]int32, n)
	colPos := make([]int32, n)
	for k := 0; k < n; k++ {
		rowPos[prow[k]] = int32(k)
		colPos[pcol[k]] = int32(k)
	}

	// Pack L (columns are elimination steps; convert rows to permuted
	// positions and sort).
	f.lPtr = make([]int32, n+1)
	f.lRow = make([]int32, 0, len(lRows))
	f.lVal = make([]float64, 0, len(lRows))
	type ent struct {
		pos int32
		val float64
	}
	var scratch []ent
	for k := 0; k < n; k++ {
		f.lPtr[k] = int32(len(f.lRow))
		scratch = scratch[:0]
		for t := lStep[k]; t < lStep[k+1]; t++ {
			scratch = append(scratch, ent{rowPos[lRows[t]], lVals[t]})
		}
		slices.SortFunc(scratch, func(x, y ent) int { return cmp.Compare(x.pos, y.pos) })
		for _, e := range scratch {
			f.lRow = append(f.lRow, e.pos)
			f.lVal = append(f.lVal, e.val)
		}
	}
	f.lPtr[n] = int32(len(f.lRow))

	// Pack U column-major: entry (k, colPos[c]) for each recorded U-row
	// entry (k, c).
	f.uPtr = make([]int32, n+1)
	for _, c := range uCols {
		f.uPtr[colPos[c]+1]++
	}
	for j := 0; j < n; j++ {
		f.uPtr[j+1] += f.uPtr[j]
	}
	f.uRow = make([]int32, len(uCols))
	f.uVal = make([]float64, len(uCols))
	fill := make([]int32, n)
	copy(fill, f.uPtr[:n])
	// Iterate k ascending so each U column's rows come out sorted.
	for k := 0; k < n; k++ {
		for t := uStep[k]; t < uStep[k+1]; t++ {
			j := colPos[uCols[t]]
			p := fill[j]
			f.uRow[p] = int32(k)
			f.uVal[p] = uVals[t]
			fill[j] = p + 1
		}
	}
	f.uDiag = udiag

	// A-scatter map: permuted column j draws from original column pcol[j].
	f.aPtr = make([]int32, n+1)
	f.aRow = make([]int32, nnz)
	f.aSlot = make([]int32, nnz)
	t := int32(0)
	for j := 0; j < n; j++ {
		f.aPtr[j] = t
		oc := pcol[j]
		for p := a.ColPtr[oc]; p < a.ColPtr[oc+1]; p++ {
			f.aRow[t] = rowPos[a.RowIdx[p]]
			f.aSlot[t] = p
			t++
		}
	}
	f.aPtr[n] = t

	f.n = n
	f.prow, f.pcol = prow, pcol
	f.rowPos, f.colPos = rowPos, colPos
	if cap(f.w) < n {
		f.w = make([]float64, n)
	} else {
		f.w = f.w[:n]
		for i := range f.w {
			f.w[i] = 0
		}
	}
	f.analyzed = true
	f.patNNZ = nnz
	return nil
}

// columnPivot returns an active column's best pivot candidate: among the
// entries with |v| ≥ tol·colmax, the row with the fewest active entries,
// then the larger magnitude, then the smaller row index; and its
// Markowitz cost (row count − 1)·(column count − 1). row is -1 when the
// column is numerically empty or has no acceptable entry.
func columnPivot(rs []int32, vs []float64, rowCol [][]int32, tol float64) (row int32, cost int64) {
	colmax := 0.0
	for _, v := range vs {
		if av := math.Abs(v); av > colmax {
			colmax = av
		}
	}
	if colmax == 0 {
		return -1, 0
	}
	thresh := tol * colmax
	rBest, rBestCount := int32(-1), int64(math.MaxInt64)
	var rBestAbs float64
	for t, v := range vs {
		av := math.Abs(v)
		if av < thresh {
			continue
		}
		r := rs[t]
		rc := int64(len(rowCol[r])) - 1
		switch {
		case rc < rBestCount,
			rc == rBestCount && av > rBestAbs,
			rc == rBestCount && av == rBestAbs && r < rBest:
			rBest, rBestCount, rBestAbs = r, rc, av
		}
	}
	if rBest < 0 {
		return -1, 0
	}
	return rBest, rBestCount * (int64(len(vs)) - 1)
}
