package sparse

import (
	"fmt"
	"math"
	"sort"
)

// refAnalyze is the map-based Markowitz analysis that LU.Analyze
// replaced, kept as the reference the slice-based one must reproduce bit
// for bit: the active submatrix lives in per-column row→value maps and
// per-row column sets. Within a column the pivot candidates are visited
// in map order, so the selection is deterministic only when no candidate
// value is NaN.
func refAnalyze(f *LU, a *Matrix) error {
	n := a.N
	tol := f.pivotTol()

	// Active submatrix in scatter form: colv[j] maps active row -> value,
	// rows[i] is the set of active columns of row i.
	colv := make([]map[int32]float64, n)
	rows := make([]map[int32]struct{}, n)
	for i := 0; i < n; i++ {
		rows[i] = make(map[int32]struct{}, 8)
	}
	for j := 0; j < n; j++ {
		c := make(map[int32]float64, int(a.ColPtr[j+1]-a.ColPtr[j])+4)
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			c[i] = a.Vals[p]
			rows[i][int32(j)] = struct{}{}
		}
		colv[j] = c
	}

	colActive := make([]bool, n)
	for i := range colActive {
		colActive[i] = true
	}

	prow := make([]int32, n)
	pcol := make([]int32, n)
	// Factor structure in original coordinates, per elimination step.
	lrows := make([][]int32, n)   // L column k: original rows
	lvals := make([][]float64, n) // aligned values
	ucols := make([][]int32, n)   // U row k: original columns
	uvals := make([][]float64, n)
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
			c := colv[j]
			colmax := 0.0
			for _, v := range c {
				if av := math.Abs(v); av > colmax {
					colmax = av
				}
			}
			if colmax == 0 {
				continue // numerically empty column; try others
			}
			ccount := int64(len(c)) - 1
			thresh := tol * colmax
			// Within the column pick the acceptable row with the smallest
			// row count; break ties toward larger magnitude then smaller
			// row index (deterministic despite map iteration order).
			rBest, rBestCount := int32(-1), int64(math.MaxInt64)
			var rBestAbs float64
			for r, v := range c {
				av := math.Abs(v)
				if av < thresh {
					continue
				}
				rc := int64(len(rows[r])) - 1
				switch {
				case rc < rBestCount,
					rc == rBestCount && av > rBestAbs,
					rc == rBestCount && av == rBestAbs && r < rBest:
					rBest, rBestCount, rBestAbs = r, rc, av
				}
			}
			if rBest < 0 {
				continue
			}
			cost := rBestCount * ccount
			if cost < bestCost || (cost == bestCost && bestCol < 0) {
				bestCost, bestRow, bestCol = cost, rBest, int32(j)
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
		piv := colv[pj][pi]
		prow[k], pcol[k] = pi, pj
		udiag[k] = piv

		// Record the pivot row (U row k) and pivot column (L column k)
		// structure, then eliminate.
		delete(colv[pj], pi)
		delete(rows[pi], pj)
		uc := make([]int32, 0, len(rows[pi]))
		for cIdx := range rows[pi] {
			uc = append(uc, cIdx)
		}
		sort.Slice(uc, func(x, y int) bool { return uc[x] < uc[y] })
		uv := make([]float64, len(uc))
		for t, cIdx := range uc {
			uv[t] = colv[cIdx][pi]
		}
		lr := make([]int32, 0, len(colv[pj]))
		for rIdx := range colv[pj] {
			lr = append(lr, rIdx)
		}
		sort.Slice(lr, func(x, y int) bool { return lr[x] < lr[y] })
		lv := make([]float64, len(lr))
		for t, rIdx := range lr {
			lv[t] = colv[pj][rIdx] / piv
		}
		ucols[k], uvals[k] = uc, uv
		lrows[k], lvals[k] = lr, lv

		// Rank-1 update of the active submatrix with exact fill tracking.
		for t, rIdx := range lr {
			l := lv[t]
			for s, cIdx := range uc {
				cv := colv[cIdx]
				old, ok := cv[rIdx]
				cv[rIdx] = old - l*uv[s]
				if !ok {
					rows[rIdx][cIdx] = struct{}{}
				}
			}
		}
		// Deactivate the pivot row and column.
		for _, cIdx := range uc {
			delete(colv[cIdx], pi)
		}
		for _, rIdx := range lr {
			delete(rows[rIdx], pj)
		}
		colActive[pj] = false
		colv[pj] = nil
		rows[pi] = nil
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
	lnnz := 0
	for k := range lrows {
		lnnz += len(lrows[k])
	}
	f.lPtr = make([]int32, n+1)
	f.lRow = make([]int32, 0, lnnz)
	f.lVal = make([]float64, 0, lnnz)
	type ent struct {
		pos int32
		val float64
	}
	var scratch []ent
	for k := 0; k < n; k++ {
		f.lPtr[k] = int32(len(f.lRow))
		scratch = scratch[:0]
		for t, rIdx := range lrows[k] {
			scratch = append(scratch, ent{rowPos[rIdx], lvals[k][t]})
		}
		sort.Slice(scratch, func(x, y int) bool { return scratch[x].pos < scratch[y].pos })
		for _, e := range scratch {
			f.lRow = append(f.lRow, e.pos)
			f.lVal = append(f.lVal, e.val)
		}
	}
	f.lPtr[n] = int32(len(f.lRow))

	// Pack U column-major: entry (k, colPos[c]) for each recorded U-row
	// entry (k, c).
	ucount := make([]int32, n)
	unnz := 0
	for k := 0; k < n; k++ {
		for _, cIdx := range ucols[k] {
			ucount[colPos[cIdx]]++
			unnz++
		}
	}
	f.uPtr = make([]int32, n+1)
	for j := 0; j < n; j++ {
		f.uPtr[j+1] = f.uPtr[j] + ucount[j]
	}
	f.uRow = make([]int32, unnz)
	f.uVal = make([]float64, unnz)
	fill := make([]int32, n)
	copy(fill, f.uPtr[:n])
	// Iterate k ascending so each U column's rows come out sorted.
	for k := 0; k < n; k++ {
		for t, cIdx := range ucols[k] {
			j := colPos[cIdx]
			p := fill[j]
			f.uRow[p] = int32(k)
			f.uVal[p] = uvals[k][t]
			fill[j] = p + 1
		}
	}
	f.uDiag = udiag

	// A-scatter map: permuted column j draws from original column pcol[j].
	f.aPtr = make([]int32, n+1)
	f.aRow = make([]int32, a.NNZ())
	f.aSlot = make([]int32, a.NNZ())
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
	f.patNNZ = a.NNZ()
	return nil
}
