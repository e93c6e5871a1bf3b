package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// At returns the value at (i, j); positions outside the pattern read 0.
func (m *Matrix) At(i, j int) float64 {
	if s := m.slot(i, j); s >= 0 {
		return m.Vals[s]
	}
	return 0
}

// Solve returns x with A·x = b, allocating the result.
func (f *LU) Solve(b []float64) []float64 {
	x := make([]float64, f.n)
	f.SolveInto(x, b)
	return x
}

// buildBoth stamps the same entries into a dense matrix and a sparse
// builder so tests can compare the two backends on identical systems.
type stampFn func(add func(i, j int, v float64))

func buildBoth(n int, stamps stampFn) (*linalg.Matrix, *Matrix) {
	d := linalg.NewMatrix(n, n)
	b := NewBuilder(n)
	stamps(func(i, j int, v float64) {
		d.Add(i, j, v)
		b.Add(i, j, v)
	})
	return d, b.Freeze()
}

func TestBuilderFreezeSortedPattern(t *testing.T) {
	b := NewBuilder(3)
	b.Add(2, 0, 5)
	b.Add(0, 0, 1)
	b.Add(1, 2, 3)
	b.Add(0, 0, 2) // accumulate
	m := b.Freeze()
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if got := m.At(0, 0); got != 3 {
		t.Fatalf("At(0,0) = %g, want 3 (accumulated)", got)
	}
	for j := 0; j < m.N; j++ {
		for p := m.ColPtr[j] + 1; p < m.ColPtr[j+1]; p++ {
			if m.RowIdx[p-1] >= m.RowIdx[p] {
				t.Fatalf("column %d rows not strictly sorted", j)
			}
		}
	}
	if got := m.At(1, 1); got != 0 {
		t.Fatalf("At outside pattern = %g, want 0", got)
	}
}

func TestMatrixAddOutsidePatternPanics(t *testing.T) {
	b := NewBuilder(2)
	b.Add(0, 0, 1)
	m := b.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Add outside the frozen pattern did not panic")
		}
	}()
	m.Add(1, 1, 1)
}

func TestMatrixMulVecInto(t *testing.T) {
	d, s := buildBoth(4, func(add func(i, j int, v float64)) {
		add(0, 0, 2)
		add(1, 1, -3)
		add(2, 0, 1)
		add(0, 2, 4)
		add(3, 3, 1)
		add(2, 2, 5)
	})
	x := []float64{1, -2, 3, 0.5}
	want := d.MulVec(x)
	got := make([]float64, 4)
	s.MulVecInto(got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVecInto[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestLUSolveSmallKnown(t *testing.T) {
	// A = [[4,1],[2,3]], b = [1, 2] -> x = [0.1, 0.6]
	_, s := buildBoth(2, func(add func(i, j int, v float64)) {
		add(0, 0, 4)
		add(0, 1, 1)
		add(1, 0, 2)
		add(1, 1, 3)
	})
	var f LU
	if err := f.FactorInto(s); err != nil {
		t.Fatalf("FactorInto: %v", err)
	}
	x := f.Solve([]float64{1, 2})
	if math.Abs(x[0]-0.1) > 1e-14 || math.Abs(x[1]-0.6) > 1e-14 {
		t.Fatalf("x = %v, want [0.1 0.6]", x)
	}
}

func TestLUZeroDiagonalPivoting(t *testing.T) {
	// Voltage-source-like MNA block: branch row with a structurally zero
	// diagonal forces off-diagonal pivoting.
	//   [ g  0  1 ] [v1]   [0]
	//   [ 0  g -1 ] [v2] = [0]
	//   [ 1 -1  0 ] [ib]   [5]   (v1 - v2 = 5)
	g := 1e-3
	_, s := buildBoth(3, func(add func(i, j int, v float64)) {
		add(0, 0, g)
		add(1, 1, g)
		add(0, 2, 1)
		add(1, 2, -1)
		add(2, 0, 1)
		add(2, 1, -1)
		add(2, 2, 0) // structural zero on the branch diagonal
	})
	var f LU
	if err := f.FactorInto(s); err != nil {
		t.Fatalf("FactorInto with zero diagonal: %v", err)
	}
	x := f.Solve([]float64{0, 0, 5})
	if math.Abs(x[0]-x[1]-5) > 1e-10 {
		t.Fatalf("branch constraint violated: v1-v2 = %g, want 5", x[0]-x[1])
	}
}

func TestLUStructurallySingular(t *testing.T) {
	// Column 1 has no entries at all.
	b := NewBuilder(3)
	b.Add(0, 0, 1)
	b.Add(1, 0, 2)
	b.Add(2, 2, 3)
	b.Add(1, 2, 1)
	m := b.Freeze()
	var f LU
	if err := f.FactorInto(m); !errors.Is(err, ErrSingular) {
		t.Fatalf("FactorInto on structurally singular matrix: %v, want ErrSingular", err)
	}
}

func TestLUNumericallySingular(t *testing.T) {
	// Two identical rows.
	_, s := buildBoth(2, func(add func(i, j int, v float64)) {
		add(0, 0, 1)
		add(0, 1, 2)
		add(1, 0, 1)
		add(1, 1, 2)
	})
	var f LU
	if err := f.FactorInto(s); !errors.Is(err, ErrSingular) {
		t.Fatalf("FactorInto on rank-deficient matrix: %v, want ErrSingular", err)
	}
}

func TestLURefactorStalePivotReanalyzes(t *testing.T) {
	// First factorisation pivots through (0,0); the second value set zeroes
	// that entry, so the recorded pivot sequence degenerates and FactorInto
	// must transparently re-run the analysis.
	_, s := buildBoth(2, func(add func(i, j int, v float64)) {
		add(0, 0, 4)
		add(0, 1, 1)
		add(1, 0, 1)
		add(1, 1, 0)
	})
	var f LU
	if err := f.FactorInto(s); err != nil {
		t.Fatalf("initial FactorInto: %v", err)
	}
	// New values on the same pattern: diagonal swaps its role.
	for p := range s.Vals {
		s.Vals[p] = 0
	}
	s.Add(0, 1, 2)
	s.Add(1, 0, 3)
	s.Add(1, 1, 1)
	if err := f.FactorInto(s); err != nil {
		t.Fatalf("FactorInto after value change: %v", err)
	}
	x := f.Solve([]float64{4, 7}) // 2*x1 = 4; 3*x0 + x1 = 7
	if math.Abs(x[0]-5.0/3.0) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v, want [5/3 2]", x)
	}
}

// randomMNASystem builds an MNA-shaped system: g resistive stamps between
// random node pairs (symmetric 4-position stamps, diagonally dominant),
// ground-connected diagonals, plus nBranch voltage-source-style branch rows
// with structurally zero diagonals.
func randomMNASystem(rng *rand.Rand, nNodes, nBranch int) (*linalg.Matrix, *Matrix, []float64) {
	n := nNodes + nBranch
	d, s := buildBoth(n, func(add func(i, j int, v float64)) {
		// Every node leaks to ground so the resistive block is nonsingular.
		for i := 0; i < nNodes; i++ {
			add(i, i, 1e-6+rng.Float64())
		}
		nR := 2 * nNodes
		for r := 0; r < nR; r++ {
			a, b := rng.Intn(nNodes), rng.Intn(nNodes)
			if a == b {
				continue
			}
			g := 1e-3 + rng.Float64()
			add(a, a, g)
			add(b, b, g)
			add(a, b, -g)
			add(b, a, -g)
		}
		for k := 0; k < nBranch; k++ {
			br := nNodes + k
			a, b := rng.Intn(nNodes), rng.Intn(nNodes)
			for b == a {
				b = rng.Intn(nNodes)
			}
			add(a, br, 1)
			add(br, a, 1)
			add(b, br, -1)
			add(br, b, -1)
			add(br, br, 0) // structural zero diagonal
		}
	})
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	return d, s, rhs
}

func TestLUPropertySparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		nNodes := 4 + rng.Intn(40)
		nBranch := rng.Intn(4)
		d, s, b := randomMNASystem(rng, nNodes, nBranch)
		n := s.N

		xDense, errD := linalg.Solve(d, b)
		var f LU
		errS := f.FactorInto(s)
		if errD != nil || errS != nil {
			if (errD == nil) != (errS == nil) {
				t.Fatalf("trial %d: singularity disagreement dense=%v sparse=%v", trial, errD, errS)
			}
			continue
		}
		xSparse := f.Solve(b)

		// 1-ULP-scale agreement: both solve the same well-conditioned
		// system, so the difference must stay within a few ULP of the
		// solution magnitude (different pivot orders make exact equality
		// impossible in general).
		scale := linalg.VecNormInf(xDense) + linalg.VecNormInf(b) + 1
		for i := 0; i < n; i++ {
			if diff := math.Abs(xSparse[i] - xDense[i]); diff > 1e-10*scale {
				t.Fatalf("trial %d (n=%d): x[%d] sparse=%.17g dense=%.17g diff=%g scale=%g",
					trial, n, i, xSparse[i], xDense[i], diff, scale)
			}
		}

		// And the residual must be small in its own right.
		res := make([]float64, n)
		s.MulVecInto(res, xSparse)
		linalg.VecSubInto(res, res, b)
		if r := linalg.VecNormInf(res); r > 1e-9*scale {
			t.Fatalf("trial %d: sparse residual %g too large (scale %g)", trial, r, scale)
		}
	}
}

func TestLURefactorMatchesFreshAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d, s, b := randomMNASystem(rng, 30, 2)
	_ = d
	var reused LU
	if err := reused.FactorInto(s); err != nil {
		t.Fatalf("initial FactorInto: %v", err)
	}
	// Perturb values on the fixed pattern (keep signs so pivots stay valid).
	for p := range s.Vals {
		s.Vals[p] *= 1 + 0.01*rng.Float64()
	}
	if err := reused.FactorInto(s); err != nil {
		t.Fatalf("refactor: %v", err)
	}
	var fresh LU
	if err := fresh.Analyze(s); err != nil {
		t.Fatalf("fresh Analyze: %v", err)
	}
	xr := reused.Solve(b)
	xf := fresh.Solve(b)
	for i := range xr {
		if xr[i] != xf[i] {
			t.Fatalf("refactor vs fresh analysis diverged at %d: %.17g vs %.17g", i, xr[i], xf[i])
		}
	}
}

func TestLURefactorAndSolveAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	_, s, b := randomMNASystem(rng, 40, 3)
	var f LU
	if err := f.FactorInto(s); err != nil {
		t.Fatalf("FactorInto: %v", err)
	}
	x := make([]float64, s.N)
	allocs := testing.AllocsPerRun(50, func() {
		if err := f.FactorInto(s); err != nil {
			t.Fatalf("refactor: %v", err)
		}
		f.SolveInto(x, b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state refactor+solve allocated %v times, want 0", allocs)
	}
}

func TestVecSubInto(t *testing.T) {
	a := []float64{3, 5, 7}
	b := []float64{1, 1, 2}
	dst := make([]float64, 3)
	linalg.VecSubInto(dst, a, b)
	want := []float64{2, 4, 5}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("VecSubInto[%d] = %g, want %g", i, dst[i], want[i])
		}
	}
	// Aliasing dst with a must be safe.
	linalg.VecSubInto(a, a, b)
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("aliased VecSubInto[%d] = %g, want %g", i, a[i], want[i])
		}
	}
}

func TestDenseMulVecIntoMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := linalg.NewMatrix(5, 5)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := m.MulVec(x)
	got := make([]float64, 5)
	allocs := testing.AllocsPerRun(20, func() { m.MulVecInto(got, x) })
	if allocs != 0 {
		t.Fatalf("MulVecInto allocated %v times, want 0", allocs)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVecInto[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}
