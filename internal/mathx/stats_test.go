package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

// Variance returns the unbiased (n-1) sample variance of xs, or NaN for
// fewer than two samples. It uses a two-pass algorithm for stability.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Correlation returns the Pearson correlation coefficient of xs and ys.
// It panics if the slices differ in length or have fewer than two points,
// and returns NaN if either input is constant.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("mathx: Correlation length mismatch")
	}
	if len(xs) < 2 {
		panic("mathx: Correlation needs at least two points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// N returns the sample count.
func (r *Running) N() int { return int(r.m.Count) }

// Min returns the smallest sample seen (NaN when empty).
func (r *Running) Min() float64 {
	if r.m.Count == 0 {
		return math.NaN()
	}
	return r.m.Min
}

// Max returns the largest sample seen (NaN when empty).
func (r *Running) Max() float64 {
	if r.m.Count == 0 {
		return math.NaN()
	}
	return r.m.Max
}

// Moments returns a copy of the underlying mergeable accumulator.
func (r *Running) Moments() Moments { return r.m }

// Merge folds other into r, as if all of other's samples had been added to
// r. This combines per-worker statistics from parallel Monte-Carlo runs.
func (r *Running) Merge(other *Running) { r.m.Merge(other.m) }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %g, want 5", m)
	}
	if v := Variance(xs); !ApproxEqual(v, 32.0/7, 1e-12, 0) {
		t.Errorf("Variance = %g, want %g", v, 32.0/7)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of one sample should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.p); !ApproxEqual(got, c.want, 1e-12, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if Median(xs) != 3 {
		t.Error("Median broken")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestCorrelationPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if c := Correlation(xs, ys); !ApproxEqual(c, 1, 1e-12, 0) {
		t.Errorf("Correlation = %g, want 1", c)
	}
	neg := []float64{8, 6, 4, 2}
	if c := Correlation(xs, neg); !ApproxEqual(c, -1, 1e-12, 0) {
		t.Errorf("Correlation = %g, want -1", c)
	}
}

func TestLinFitRecoversLine(t *testing.T) {
	xs := Linspace(0, 10, 50)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 - 0.7*x
	}
	a, b, r2 := LinFit(xs, ys)
	if !ApproxEqual(a, 3, 1e-9, 1e-9) || !ApproxEqual(b, -0.7, 1e-9, 1e-9) || r2 < 1-1e-12 {
		t.Errorf("LinFit = (%g, %g, %g), want (3, -0.7, 1)", a, b, r2)
	}
}

func TestPowerFitRecoversPowerLaw(t *testing.T) {
	xs := Logspace(0.1, 1000, 30)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2.5 * math.Pow(x, 0.25)
	}
	c, n, r2 := PowerFit(xs, ys)
	if !ApproxEqual(c, 2.5, 1e-9, 0) || !ApproxEqual(n, 0.25, 1e-9, 0) || r2 < 1-1e-12 {
		t.Errorf("PowerFit = (%g, %g, %g), want (2.5, 0.25, 1)", c, n, r2)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, x := range []float64{-1, 0, 0.5, 5, 9.99, 10, 11} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("Under=%d Over=%d, want 1, 2", h.Under, h.Over)
	}
	if h.Counts[0] != 2 || h.Counts[5] != 1 || h.Counts[9] != 1 {
		t.Errorf("counts = %v", h.Counts)
	}
	total := h.Under + h.Over
	for _, c := range h.Counts {
		total += c
	}
	if total != 7 {
		t.Errorf("%d samples binned, want all 7", total)
	}
	if got := h.BinCenter(0); got != 0.5 {
		t.Errorf("BinCenter(0) = %g, want 0.5", got)
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	r := NewRNG(99)
	xs := make([]float64, 1000)
	var run Running
	for i := range xs {
		xs[i] = r.Norm()*3 + 1
		run.Add(xs[i])
	}
	if !ApproxEqual(run.Mean(), Mean(xs), 1e-10, 1e-10) {
		t.Errorf("running mean %g != batch %g", run.Mean(), Mean(xs))
	}
	if !ApproxEqual(run.Variance(), Variance(xs), 1e-10, 1e-10) {
		t.Errorf("running variance %g != batch %g", run.Variance(), Variance(xs))
	}
	lo, hi := MinMax(xs)
	if run.Min() != lo || run.Max() != hi {
		t.Error("running min/max disagree with batch")
	}
}

func TestRunningMergeEquivalence(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		n1 := 1 + r.Intn(50)
		n2 := 1 + r.Intn(50)
		var a, b, all Running
		for i := 0; i < n1; i++ {
			x := r.Norm()
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < n2; i++ {
			x := r.Norm() * 2
			b.Add(x)
			all.Add(x)
		}
		a.Merge(&b)
		return a.N() == all.N() &&
			ApproxEqual(a.Mean(), all.Mean(), 1e-9, 1e-12) &&
			ApproxEqual(a.Variance(), all.Variance(), 1e-9, 1e-12) &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunningMergeEmpty(t *testing.T) {
	var a, b Running
	a.Add(1)
	a.Add(3)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 2 || a.Mean() != 2 {
		t.Error("merge with empty changed stats")
	}
	var c Running
	c.Merge(&a)
	if c.N() != 2 || c.Mean() != 2 {
		t.Error("merge into empty lost stats")
	}
}

func TestKSAcceptsMatchingDistribution(t *testing.T) {
	rng := NewRNG(31)
	d := Normal{Mu: 2, Sigma: 0.5}
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = d.Sample(rng)
	}
	stat := KSStatistic(xs, d)
	if stat > KSCritical(len(xs), 0.01) {
		t.Errorf("KS rejected its own distribution: D=%g crit=%g", stat, KSCritical(len(xs), 0.01))
	}
}

func TestKSRejectsWrongDistribution(t *testing.T) {
	rng := NewRNG(37)
	uni := Uniform{Lo: 0, Hi: 1}
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = uni.Sample(rng)
	}
	stat := KSStatistic(xs, Normal{Mu: 0.5, Sigma: 0.29})
	if stat < KSCritical(len(xs), 0.05) {
		t.Errorf("KS failed to reject a uniform sample against a normal: D=%g", stat)
	}
}

func TestKSWeibullSelfConsistency(t *testing.T) {
	rng := NewRNG(41)
	w := NewWeibull(2.5, 7)
	xs := make([]float64, 1500)
	for i := range xs {
		xs[i] = w.Sample(rng)
	}
	if stat := KSStatistic(xs, w); stat > KSCritical(len(xs), 0.01) {
		t.Errorf("Weibull KS self-test failed: D=%g", stat)
	}
}

func TestKSCriticalShrinksWithN(t *testing.T) {
	if KSCritical(100, 0.05) <= KSCritical(10000, 0.05) {
		t.Error("critical value must shrink with sample size")
	}
	if KSCritical(100, 0.01) <= KSCritical(100, 0.10) {
		t.Error("tighter alpha must raise the critical value")
	}
}
