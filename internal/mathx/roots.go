package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative solver exhausts its
// iteration budget without meeting tolerance.
var ErrNoConvergence = errors.New("mathx: no convergence")

// Bisect finds a root of f on [a, b] by bisection. f(a) and f(b) must have
// opposite signs. tol is the absolute interval tolerance.
//
// test seam: device's TestZeroTemperatureCoefficientBiasExists locates the
// zero-temperature-coefficient bias with it.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return 0, fmt.Errorf("mathx: Bisect requires a sign change on [%g, %g] (f=%g, %g)", a, b, fa, fb)
	}
	for i := 0; i < 200; i++ {
		m := a + (b-a)/2
		fm := f(m)
		if fm == 0 || (b-a)/2 < tol {
			return m, nil
		}
		if math.Signbit(fm) == math.Signbit(fa) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return 0, ErrNoConvergence
}

// Logspace returns n points geometrically spaced from lo to hi inclusive.
// It panics unless lo, hi > 0 and n >= 2.
func Logspace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= 0 {
		panic("mathx: Logspace needs positive endpoints")
	}
	if n < 2 {
		panic("mathx: Logspace needs n >= 2")
	}
	out := make([]float64, n)
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := range out {
		out[i] = math.Exp(llo + (lhi-llo)*float64(i)/float64(n-1))
	}
	return out
}

// Linspace returns n points linearly spaced from lo to hi inclusive. It
// panics for n < 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("mathx: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// ApproxEqual reports whether a and b agree within relative tolerance rel
// or absolute tolerance abs (whichever is looser).
//
// test seam: the tolerance comparison of most packages' numerical tests.
func ApproxEqual(a, b, rel, abs float64) bool {
	d := math.Abs(a - b)
	if d <= abs {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*scale
}
