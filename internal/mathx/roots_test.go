package mathx

import (
	"math"
	"testing"
)

func TestBisectFindsRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	root, err := Bisect(f, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Errorf("root = %.15g, want sqrt(2)", root)
	}
}

func TestBisectRejectsNoSignChange(t *testing.T) {
	if _, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-9); err == nil {
		t.Fatal("expected error for no sign change")
	}
}

func TestLogspaceLinspace(t *testing.T) {
	ls := Logspace(1, 1000, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range ls {
		if !ApproxEqual(ls[i], want[i], 1e-12, 0) {
			t.Errorf("Logspace[%d] = %g, want %g", i, ls[i], want[i])
		}
	}
	lin := Linspace(0, 3, 4)
	for i, w := range []float64{0, 1, 2, 3} {
		if lin[i] != w {
			t.Errorf("Linspace[%d] = %g, want %g", i, lin[i], w)
		}
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-13, 1e-12, 0) {
		t.Error("tight relative comparison failed")
	}
	if ApproxEqual(1.0, 1.1, 1e-3, 0) {
		t.Error("loose values compared equal")
	}
	if !ApproxEqual(0, 1e-15, 0, 1e-12) {
		t.Error("absolute tolerance near zero failed")
	}
}
