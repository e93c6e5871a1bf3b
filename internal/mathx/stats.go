package mathx

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

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

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the minimum and maximum of xs. It panics on an empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("mathx: MinMax of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Quantile returns the p-quantile of xs (p in [0, 1]) using linear
// interpolation between order statistics (type-7, the numpy default). The
// input need not be sorted; it is not modified. It panics on an empty slice
// or p outside [0, 1].
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("mathx: Quantile of empty slice")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("mathx: Quantile p=%g out of [0,1]", p))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, p)
}

// QuantileSorted is Quantile for an already ascending-sorted slice: the
// O(n log n) copy-and-sort is skipped entirely, so repeated quantile reads
// of one dataset cost O(1) each. The input is not modified. Behaviour on
// an unsorted slice is undefined.
func QuantileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		panic("mathx: QuantileSorted of empty slice")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("mathx: QuantileSorted p=%g out of [0,1]", p))
	}
	if len(s) == 1 {
		return s[0]
	}
	h := p * float64(len(s)-1)
	i := int(math.Floor(h))
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := h - float64(i)
	return s[i] + frac*(s[i+1]-s[i])
}

// Median returns the 0.5 quantile of xs.
//
// test seam: aging's TestTDDBSampledTBDMatchesWeibull compares sampled and
// analytic median breakdown times with it.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// LinFit fits y = a + b*x by least squares and returns the intercept a,
// slope b and coefficient of determination r2. It panics on mismatched or
// too-short inputs.
func LinFit(xs, ys []float64) (a, b, r2 float64) {
	if len(xs) != len(ys) {
		panic("mathx: LinFit length mismatch")
	}
	if len(xs) < 2 {
		panic("mathx: LinFit needs at least two points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		panic("mathx: LinFit with constant x")
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		return a, b, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return a, b, r2
}

// PowerFit fits y = c * x^n on strictly positive data by linear regression
// in log-log space, returning the prefactor c, exponent n and the log-space
// r2. This is the standard extraction for power-law aging data (ΔVT ∝ t^n).
func PowerFit(xs, ys []float64) (c, n, r2 float64) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic(fmt.Sprintf("mathx: PowerFit needs positive data, got (%g, %g)", xs[i], ys[i]))
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	a, b, r2 := LinFit(lx, ly)
	return math.Exp(a), b, r2
}

// Histogram is a fixed-bin histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	// Under and Over count samples outside [Lo, Hi).
	Under, Over int
}

// NewHistogram returns a histogram with bins equal-width bins over
// [lo, hi). It panics for a non-positive bin count or an empty range.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("mathx: histogram needs at least one bin")
	}
	if hi <= lo {
		panic(fmt.Sprintf("mathx: histogram range [%g, %g) is empty", lo, hi))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// BinCenter returns the centre of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Running accumulates streaming mean/variance via Welford's algorithm, so
// Monte-Carlo loops can track statistics without storing every sample. It
// is a thin unexported-state wrapper around Moments, which is the
// JSON-serializable form used when statistics must cross a process
// boundary (sharded campaigns, checkpoints).
type Running struct {
	m Moments
}

// Add records one sample.
func (r *Running) Add(x float64) { r.m.Add(x) }

// Mean returns the running mean (NaN when empty).
//
// test seam: the sram, variation, circuit and jobspec tests read sample
// means through it.
func (r *Running) Mean() float64 { return r.m.MeanValue() }

// Variance returns the unbiased running variance (NaN with fewer than two
// samples).
func (r *Running) Variance() float64 { return r.m.Variance() }

// StdDev returns the running standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// KSStatistic returns the one-sample Kolmogorov-Smirnov statistic D: the
// largest distance between the empirical CDF of xs and the distribution's
// CDF. It panics on an empty sample. Combined with KSCritical it is the
// goodness-of-fit check the reliability analyses use to validate Weibull
// and normal assumptions on simulated data.
//
// test seam: aging's TestTDDBSampledTBDMatchesWeibull checks sampled
// breakdown times against the analytic Weibull with it.
func KSStatistic(xs []float64, d Distribution) float64 {
	if len(xs) == 0 {
		panic("mathx: KSStatistic of empty sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	worst := 0.0
	for i, x := range s {
		f := d.CDF(x)
		// Empirical CDF jumps at each point: compare against both sides.
		lo := float64(i) / n
		hi := float64(i+1) / n
		if dd := math.Abs(f - lo); dd > worst {
			worst = dd
		}
		if dd := math.Abs(f - hi); dd > worst {
			worst = dd
		}
	}
	return worst
}

// KSCritical returns the approximate critical value of D at significance
// alpha for a sample of size n (asymptotic formula c(α)/√n, valid for
// n ≳ 35). Supported alphas: 0.10, 0.05, 0.01.
//
// test seam: the acceptance threshold of aging's
// TestTDDBSampledTBDMatchesWeibull.
func KSCritical(n int, alpha float64) float64 {
	if n <= 0 {
		panic("mathx: KSCritical needs n > 0")
	}
	var c float64
	switch {
	case alpha >= 0.10:
		c = 1.224
	case alpha >= 0.05:
		c = 1.358
	default:
		c = 1.628
	}
	return c / math.Sqrt(float64(n))
}
