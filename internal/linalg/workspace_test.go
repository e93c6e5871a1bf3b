package linalg

import (
	"errors"
	"math"
	"testing"
)

func TestFactorSolve1x1(t *testing.T) {
	a := NewMatrix(1, 1)
	a.Set(0, 0, 4)
	x, err := Solve(a, []float64{8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-15 {
		t.Fatalf("1x1 solve gives %g, want 2", x[0])
	}
}

func TestFactor1x1Singular(t *testing.T) {
	a := NewMatrix(1, 1) // zero matrix
	if _, err := Factor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero 1x1 factorised: err=%v", err)
	}
}

// TestFactorSingularAfterPivot exercises the case where the first pivot
// column is fine but elimination zeroes a later pivot: rank-1 matrix
// [[1,2],[2,4]].
func TestFactorSingularAfterPivot(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Factor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("rank-1 matrix factorised: err=%v", err)
	}
}

// TestFactorIntoReuse reuses one LU across different matrix values of the
// same dimension and checks no state leaks between factorisations.
func TestFactorIntoReuse(t *testing.T) {
	var f LU
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(1, 1, 4)
	if err := f.FactorInto(a); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	f.SolveInto(x, []float64{2, 8})
	if math.Abs(x[0]-1) > 1e-15 || math.Abs(x[1]-2) > 1e-15 {
		t.Fatalf("first solve gives %v, want [1 2]", x)
	}
	// Same dimension, different values — including a permutation-forcing
	// off-diagonal so stale pivots would be caught.
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 3)
	a.Set(1, 1, 0)
	if err := f.FactorInto(a); err != nil {
		t.Fatal(err)
	}
	f.SolveInto(x, []float64{5, 6})
	if math.Abs(x[0]-2) > 1e-15 || math.Abs(x[1]-5) > 1e-15 {
		t.Fatalf("reused solve gives %v, want [2 5]", x)
	}
}

// TestFactorIntoResize grows and then shrinks the system through one LU.
func TestFactorIntoResize(t *testing.T) {
	var f LU
	for _, n := range []int{2, 5, 3} {
		a := NewMatrix(n, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, float64(i+1))
			b[i] = float64((i + 1) * (i + 1))
		}
		if err := f.FactorInto(a); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := make([]float64, n)
		f.SolveInto(x, b)
		for i := range x {
			if math.Abs(x[i]-float64(i+1)) > 1e-12 {
				t.Fatalf("n=%d: x[%d] = %g, want %d", n, i, x[i], i+1)
			}
		}
	}
}

// TestFactorIntoAfterSingular verifies an LU recovers cleanly after a
// failed factorisation.
func TestFactorIntoAfterSingular(t *testing.T) {
	var f LU
	if err := f.FactorInto(NewMatrix(2, 2)); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero matrix factorised: err=%v", err)
	}
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	if err := f.FactorInto(a); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	f.SolveInto(x, []float64{7, 9})
	if x[0] != 7 || x[1] != 9 {
		t.Fatalf("identity solve gives %v", x)
	}
}

func TestFactorIntoRejectsNonSquare(t *testing.T) {
	var f LU
	if err := f.FactorInto(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square matrix accepted")
	}
}

// TestWorkspaceFactorSolve checks the workspace pipeline against the
// allocating API and asserts it is allocation-free once warm.
func TestWorkspaceFactorSolve(t *testing.T) {
	n := 6
	w := NewWorkspace(n)
	fill := func() {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				w.A.Set(i, j, 1/float64(1+i+j))
			}
			w.A.Add(i, i, 3)
			w.B[i] = float64(i)
		}
	}
	fill()
	ref, err := Solve(w.A, append([]float64(nil), w.B...))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.FactorSolve(); err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(w.X[i]-ref[i]) > 1e-12 {
			t.Fatalf("workspace x[%d] = %g, want %g", i, w.X[i], ref[i])
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		fill()
		if err := w.FactorSolve(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm FactorSolve allocates %.1f times, want 0", allocs)
	}
}

// TestWorkspaceReset covers shrink/grow reuse and the zeroing contract.
func TestWorkspaceReset(t *testing.T) {
	w := NewWorkspace(4)
	w.A.Set(3, 3, 9)
	w.B[3] = 9
	w.Reset(2)
	if w.N != 2 || w.A.Rows != 2 || len(w.B) != 2 || len(w.X) != 2 {
		t.Fatalf("reset to 2 left dims %d/%d/%d/%d", w.N, w.A.Rows, len(w.B), len(w.X))
	}
	for i, v := range w.A.Data {
		if v != 0 {
			t.Fatalf("A not zeroed at %d: %g", i, v)
		}
	}
	w.Reset(5)
	if w.N != 5 || len(w.A.Data) != 25 {
		t.Fatalf("reset to 5 left dims %d, |A|=%d", w.N, len(w.A.Data))
	}
}

// TestCSolveInPlaceMatchesCSolve checks the in-place complex kernel
// against the allocating wrapper.
func TestCSolveInPlaceMatchesCSolve(t *testing.T) {
	n := 4
	a := NewCMatrix(n, n)
	b := make([]complex128, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, complex(1/float64(1+i+j), float64(i-j)))
		}
		a.Add(i, i, 5)
		b[i] = complex(float64(i), 1)
	}
	want, err := CSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ac := &CMatrix{Rows: n, Cols: n, Data: append([]complex128(nil), a.Data...)}
	bx := append([]complex128(nil), b...)
	if err := CSolveInPlace(ac, bx); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if d := want[i] - bx[i]; math.Hypot(real(d), imag(d)) > 1e-12 {
			t.Fatalf("in-place solution differs at %d: %v vs %v", i, bx[i], want[i])
		}
	}
}
