package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

// Normal, LogNormal and Uniform implement Distribution for the tests
// alone: they are the references the NormQuantile, quantile-monotonicity
// and Kolmogorov-Smirnov checks run against. The simulator draws normals
// through RNG.Norm and uses Weibull directly.

// Normal is a Gaussian distribution with mean Mu and standard deviation
// Sigma.
type Normal struct {
	Mu    float64
	Sigma float64
}

// Sample draws a normal variate.
func (n Normal) Sample(rng *RNG) float64 { return n.Mu + n.Sigma*rng.Norm() }

// Mean returns mu.
func (n Normal) Mean() float64 { return n.Mu }

// Variance returns sigma^2.
func (n Normal) Variance() float64 { return n.Sigma * n.Sigma }

// CDF returns the normal CDF at x.
func (n Normal) CDF(x float64) float64 {
	if n.Sigma == 0 {
		if x < n.Mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-n.Mu)/(n.Sigma*math.Sqrt2))
}

// Quantile returns the inverse normal CDF at p.
func (n Normal) Quantile(p float64) float64 {
	return n.Mu + n.Sigma*NormQuantile(p)
}

// LogNormal is a distribution whose logarithm is Normal(Mu, Sigma).
type LogNormal struct {
	Mu    float64 // mean of log(X)
	Sigma float64 // std-dev of log(X)
}

// Sample draws a lognormal variate.
func (l LogNormal) Sample(rng *RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.Norm())
}

// Mean returns exp(mu + sigma^2/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Variance returns (exp(sigma^2)-1) * exp(2mu + sigma^2).
func (l LogNormal) Variance() float64 {
	s2 := l.Sigma * l.Sigma
	return (math.Exp(s2) - 1) * math.Exp(2*l.Mu+s2)
}

// CDF returns the lognormal CDF at x (0 for x <= 0).
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return Normal{Mu: l.Mu, Sigma: l.Sigma}.CDF(math.Log(x))
}

// Quantile returns the inverse CDF at p.
func (l LogNormal) Quantile(p float64) float64 {
	return math.Exp(l.Mu + l.Sigma*NormQuantile(p))
}

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

// Sample draws a uniform variate.
func (u Uniform) Sample(rng *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*rng.Float64() }

// Mean returns the midpoint.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Variance returns (hi-lo)^2 / 12.
func (u Uniform) Variance() float64 { d := u.Hi - u.Lo; return d * d / 12 }

// CDF returns the uniform CDF at x.
func (u Uniform) CDF(x float64) float64 {
	switch {
	case x <= u.Lo:
		return 0
	case x >= u.Hi:
		return 1
	default:
		return (x - u.Lo) / (u.Hi - u.Lo)
	}
}

// Quantile returns lo + p*(hi-lo).
func (u Uniform) Quantile(p float64) float64 { return u.Lo + p*(u.Hi-u.Lo) }

func sampleMoments(d Distribution, n int, seed uint64) (mean, variance float64) {
	r := NewRNG(seed)
	var run Running
	for i := 0; i < n; i++ {
		run.Add(d.Sample(r))
	}
	return run.Mean(), run.Variance()
}

func TestNormalMoments(t *testing.T) {
	d := Normal{Mu: 3, Sigma: 2}
	mean, variance := sampleMoments(d, 200000, 1)
	if !ApproxEqual(mean, 3, 0.02, 0.02) {
		t.Errorf("mean = %g, want ~3", mean)
	}
	if !ApproxEqual(variance, 4, 0.05, 0.05) {
		t.Errorf("variance = %g, want ~4", variance)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	d := Normal{Mu: 0, Sigma: 1}
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{2, 0.9772498680518208},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := d.CDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CDF(%g) = %.15g, want %.15g", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	d := Normal{Mu: 1.5, Sigma: 0.3}
	for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		x := d.Quantile(p)
		if back := d.CDF(x); math.Abs(back-p) > 1e-10 {
			t.Errorf("CDF(Quantile(%g)) = %g", p, back)
		}
	}
}

func TestNormQuantileAccuracy(t *testing.T) {
	// Round-trip against erfc-based CDF at many probabilities.
	for _, p := range Linspace(0.0005, 0.9995, 201) {
		x := NormQuantile(p)
		back := 0.5 * math.Erfc(-x/math.Sqrt2)
		if math.Abs(back-p) > 1e-12 {
			t.Fatalf("NormQuantile(%g): round trip error %g", p, back-p)
		}
	}
}

func TestNormQuantilePanicsOutOfDomain(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormQuantile(%g) did not panic", p)
				}
			}()
			NormQuantile(p)
		}()
	}
}

func TestLogNormalMoments(t *testing.T) {
	d := LogNormal{Mu: 0.2, Sigma: 0.4}
	mean, variance := sampleMoments(d, 300000, 2)
	if !ApproxEqual(mean, d.Mean(), 0.02, 0) {
		t.Errorf("sample mean = %g, analytic %g", mean, d.Mean())
	}
	if !ApproxEqual(variance, d.Variance(), 0.08, 0) {
		t.Errorf("sample variance = %g, analytic %g", variance, d.Variance())
	}
}

func TestLogNormalCDFPositiveSupport(t *testing.T) {
	d := LogNormal{Mu: 0, Sigma: 1}
	if d.CDF(-1) != 0 || d.CDF(0) != 0 {
		t.Error("lognormal CDF must be 0 for x <= 0")
	}
	if got := d.CDF(1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF(1) = %g, want 0.5 for mu=0", got)
	}
}

func TestWeibullQuantileScale(t *testing.T) {
	w := NewWeibull(2, 10)
	// The scale parameter is the 63.2% point: CDF(eta) = 1 - 1/e.
	if got := w.CDF(10); math.Abs(got-(1-1/math.E)) > 1e-12 {
		t.Errorf("CDF(eta) = %g, want %g", got, 1-1/math.E)
	}
}

func TestWeibullMoments(t *testing.T) {
	w := NewWeibull(1.5, 4)
	mean, variance := sampleMoments(w, 300000, 3)
	if !ApproxEqual(mean, w.Mean(), 0.02, 0) {
		t.Errorf("sample mean = %g, analytic %g", mean, w.Mean())
	}
	if !ApproxEqual(variance, w.Variance(), 0.05, 0) {
		t.Errorf("sample variance = %g, analytic %g", variance, w.Variance())
	}
}

func TestWeibullQuantileRoundTrip(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		beta := 0.5 + 3*r.Float64()
		eta := 0.1 + 10*r.Float64()
		w := NewWeibull(beta, eta)
		p := r.Float64Open()
		x := w.Quantile(p)
		return math.Abs(w.CDF(x)-p) < 1e-9
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWeibitLinearisesCDF(t *testing.T) {
	w := NewWeibull(3, 7)
	// Weibit(CDF(t)) = beta*ln(t) - beta*ln(eta): slope must equal beta.
	ts := Logspace(1, 100, 20)
	var lx, ly []float64
	for _, x := range ts {
		lx = append(lx, math.Log(x))
		ly = append(ly, Weibit(w.CDF(x)))
	}
	_, slope, r2 := LinFit(lx, ly)
	if math.Abs(slope-3) > 1e-9 || r2 < 1-1e-12 {
		t.Errorf("Weibull plot slope = %g (r2=%g), want 3", slope, r2)
	}
}

func TestUniformBasics(t *testing.T) {
	u := Uniform{Lo: -2, Hi: 6}
	if u.Mean() != 2 {
		t.Errorf("mean = %g, want 2", u.Mean())
	}
	if !ApproxEqual(u.Variance(), 64.0/12, 1e-12, 0) {
		t.Errorf("variance = %g, want %g", u.Variance(), 64.0/12)
	}
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		x := u.Sample(r)
		if x < -2 || x >= 6 {
			t.Fatalf("sample %g out of [-2, 6)", x)
		}
	}
}

func TestDistributionQuantileMonotonic(t *testing.T) {
	dists := []Distribution{
		Normal{Mu: 0, Sigma: 1},
		LogNormal{Mu: 0, Sigma: 0.5},
		NewWeibull(2, 3),
		Uniform{Lo: 0, Hi: 1},
	}
	ps := Linspace(0.01, 0.99, 50)
	for _, d := range dists {
		prev := math.Inf(-1)
		for _, p := range ps {
			q := d.Quantile(p)
			if q < prev {
				t.Errorf("%T quantile not monotonic at p=%g", d, p)
			}
			prev = q
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewWeibull(0, 1) },
		func() { NewWeibull(1, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("constructor case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}
