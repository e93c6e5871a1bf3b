package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

// Set assigns element (i, j); production code only stamps with Add.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// At returns element (i, j) of a complex matrix.
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j) of a complex matrix.
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// CSolve solves the complex system A·x = b through CSolveInPlace on
// copies, so a and b are not modified.
func CSolve(a *CMatrix, b []complex128) ([]complex128, error) {
	ac := &CMatrix{Rows: a.Rows, Cols: a.Cols, Data: append([]complex128(nil), a.Data...)}
	x := append([]complex128(nil), b...)
	if err := CSolveInPlace(ac, x); err != nil {
		return nil, err
	}
	return x, nil
}

func TestSolve2x2(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.ApproxEqual(x[0], 1, 1e-12, 1e-12) || !mathx.ApproxEqual(x[1], 3, 1e-12, 1e-12) {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 7 || x[1] != 3 {
		t.Errorf("x = %v, want [7 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestFactorReuse(t *testing.T) {
	a := NewMatrix(3, 3)
	vals := [][]float64{{4, -2, 1}, {-2, 4, -2}, {1, -2, 4}}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]float64{{1, 0, 0}, {0, 1, 0}, {1, 2, 3}} {
		x := f.Solve(b)
		back := a.MulVec(x)
		for i := range b {
			if !mathx.ApproxEqual(back[i], b[i], 1e-10, 1e-10) {
				t.Errorf("residual on b=%v: got %v", b, back)
			}
		}
	}
}

func TestSolvePropertyRandomSystems(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		n := 1 + r.Intn(12)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, r.Norm())
			}
			// Diagonal dominance guarantees non-singularity.
			a.Add(i, i, float64(n)+2)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = r.Norm()
		}
		b := a.MulVec(want)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-8 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	NewMatrix(2, 2).MulVec([]float64{1})
}

func TestNormInf(t *testing.T) {
	if VecNormInf([]float64{1, -9, 3}) != 9 {
		t.Error("VecNormInf broken")
	}
	if VecNormInf(nil) != 0 {
		t.Error("VecNormInf(nil) should be 0")
	}
}

func TestCSolveKnown(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 0, complex(1, 1))
	a.Set(0, 1, complex(2, 0))
	a.Set(1, 0, complex(0, 1))
	a.Set(1, 1, complex(1, -1))
	want := []complex128{complex(1, 2), complex(-3, 0.5)}
	b := []complex128{
		a.At(0, 0)*want[0] + a.At(0, 1)*want[1],
		a.At(1, 0)*want[0] + a.At(1, 1)*want[1],
	}
	x, err := CSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if d := x[i] - want[i]; math.Abs(real(d)) > 1e-12 || math.Abs(imag(d)) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestCSolveSingular(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1)
	if _, err := CSolve(a, []complex128{1, 1}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestCSolvePropertyRandom(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		n := 1 + r.Intn(8)
		a := NewCMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, complex(r.Norm(), r.Norm()))
			}
			a.Add(i, i, complex(float64(n)+3, 0))
		}
		want := make([]complex128, n)
		for i := range want {
			want[i] = complex(r.Norm(), r.Norm())
		}
		b := make([]complex128, n)
		for i := 0; i < n; i++ {
			var s complex128
			for j := 0; j < n; j++ {
				s += a.At(i, j) * want[j]
			}
			b[i] = s
		}
		x, err := CSolve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			d := x[i] - want[i]
			if math.Abs(real(d)) > 1e-8 || math.Abs(imag(d)) > 1e-8 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestVecSub(t *testing.T) {
	got := make([]float64, 2)
	VecSubInto(got, []float64{3, 2}, []float64{1, 5})
	if got[0] != 2 || got[1] != -3 {
		t.Errorf("VecSubInto = %v", got)
	}
}
