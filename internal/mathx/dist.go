package mathx

import (
	"fmt"
	"math"
)

// Distribution is a one-dimensional probability distribution. All
// distributions in this package are immutable after construction and safe
// for concurrent use; sampling draws randomness exclusively from the RNG
// passed to Sample.
type Distribution interface {
	// Sample draws one variate using rng.
	Sample(rng *RNG) float64
	// Mean returns the distribution mean.
	Mean() float64
	// Variance returns the distribution variance.
	Variance() float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns the p-quantile (inverse CDF) for p in (0, 1).
	Quantile(p float64) float64
}

// Weibull is the two-parameter Weibull distribution used throughout oxide
// breakdown statistics: CDF(x) = 1 - exp(-(x/Eta)^Beta). Beta is the shape
// (the "Weibull slope" of TDDB literature) and Eta the scale (the 63.2 %
// quantile).
type Weibull struct {
	Beta float64 // shape
	Eta  float64 // scale
}

// NewWeibull returns a Weibull distribution. It panics if either parameter
// is not positive.
func NewWeibull(beta, eta float64) Weibull {
	if beta <= 0 || eta <= 0 {
		panic(fmt.Sprintf("mathx: invalid Weibull parameters beta=%g eta=%g", beta, eta))
	}
	return Weibull{Beta: beta, Eta: eta}
}

// Sample draws a Weibull variate via inverse-CDF.
func (w Weibull) Sample(rng *RNG) float64 {
	return w.Quantile(rng.Float64Open())
}

// Mean returns eta * Gamma(1 + 1/beta).
func (w Weibull) Mean() float64 { return w.Eta * math.Gamma(1+1/w.Beta) }

// Variance returns eta^2 * (Gamma(1+2/beta) - Gamma(1+1/beta)^2).
func (w Weibull) Variance() float64 {
	g1 := math.Gamma(1 + 1/w.Beta)
	g2 := math.Gamma(1 + 2/w.Beta)
	return w.Eta * w.Eta * (g2 - g1*g1)
}

// CDF returns 1 - exp(-(x/eta)^beta) for x >= 0 and 0 otherwise.
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-math.Pow(x/w.Eta, w.Beta))
}

// Quantile returns eta * (-ln(1-p))^(1/beta).
func (w Weibull) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return w.Eta * math.Pow(-math.Log(1-p), 1/w.Beta)
}

// Weibit returns the Weibull plotting coordinate ln(-ln(1-F)); plotting
// Weibit(F) against ln(t) linearises a Weibull CDF with slope Beta, the
// standard representation of TDDB data.
func Weibit(f float64) float64 {
	return math.Log(-math.Log(1 - f))
}

// NormQuantile returns the standard normal inverse CDF at p using the
// Acklam rational approximation refined by one Halley step; absolute error
// is below 1e-13 over (0, 1). It panics for p outside (0, 1).
func NormQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("mathx: NormQuantile p=%g out of (0,1)", p))
	}
	// Coefficients for the central and tail rational approximations.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step against the exact CDF.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}
