package aging

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mathx"
)

// WeibullFit is the result of fitting breakdown data to a two-parameter
// Weibull distribution — the standard TDDB data-reduction step: plotting
// ln(−ln(1−F)) against ln(t) linearises the CDF with slope β.
type WeibullFit struct {
	// Beta is the fitted Weibull slope (shape).
	Beta float64
	// Eta is the fitted scale (63.2 % quantile) in the input time unit.
	Eta float64
	// R2 is the coefficient of determination of the rank regression.
	R2 float64
	// N is the number of failures used.
	N int
}

// FitWeibull fits breakdown times by median-rank regression (Benard's
// approximation F_i ≈ (i−0.3)/(n+0.4)). All samples are failures; use
// FitWeibullCensored when some units survived the test. It requires at
// least three strictly positive times.
//
// paper: §3.1 — TestFitWeibullOnTDDBStateMachine asserts that sampled
// time-to-breakdown is Weibull with the model's slope.
func FitWeibull(times []float64) (*WeibullFit, error) {
	failed := make([]bool, len(times))
	for i := range failed {
		failed[i] = true
	}
	return FitWeibullCensored(times, failed)
}

// FitWeibullCensored fits breakdown data with suspensions (units removed
// from test or still alive at the end) using Johnson's adjusted-rank
// method: suspensions do not plot, but they push later failures to higher
// ranks. times[i] is the observed time of unit i; failed[i] marks real
// breakdowns.
func FitWeibullCensored(times []float64, failed []bool) (*WeibullFit, error) {
	if len(times) != len(failed) {
		return nil, fmt.Errorf("aging: times and failure flags must pair up")
	}
	type unit struct {
		t      float64
		failed bool
	}
	units := make([]unit, 0, len(times))
	nFail := 0
	for i, t := range times {
		if t <= 0 {
			return nil, fmt.Errorf("aging: non-positive time %g at %d", t, i)
		}
		units = append(units, unit{t, failed[i]})
		if failed[i] {
			nFail++
		}
	}
	if nFail < 3 {
		return nil, fmt.Errorf("aging: need at least 3 failures, have %d", nFail)
	}
	sort.Slice(units, func(i, j int) bool { return units[i].t < units[j].t })

	n := float64(len(units))
	var lx, ly []float64
	prevRank := 0.0
	for i, u := range units {
		if !u.failed {
			continue
		}
		// Johnson adjusted rank: increment grows as suspensions pass.
		increment := (n + 1 - prevRank) / (n + 1 - float64(i))
		rank := prevRank + increment
		prevRank = rank
		f := (rank - 0.3) / (n + 0.4) // Benard median rank
		lx = append(lx, math.Log(u.t))
		ly = append(ly, mathx.Weibit(f))
	}
	a, b, r2 := mathx.LinFit(lx, ly)
	// ln(−ln(1−F)) = β·ln t − β·ln η  =>  slope β, intercept −β ln η.
	beta := b
	if beta <= 0 {
		return nil, fmt.Errorf("aging: non-positive fitted slope %g", beta)
	}
	eta := math.Exp(-a / beta)
	return &WeibullFit{Beta: beta, Eta: eta, R2: r2, N: nFail}, nil
}

// ProjectedLifetime extrapolates a fitted stress-test distribution to use
// conditions with the exponential field model and Arrhenius temperature
// acceleration (the same laws TDDBModel uses), returning the use-condition
// time at the given cumulative failure target (e.g. 0.0001 for 100 ppm).
//
// paper: §3.1 — TestProjectedLifetime asserts that relaxing field and
// temperature from stress to use conditions buys decades of TDDB life.
func (m *TDDBModel) ProjectedLifetime(fit *WeibullFit,
	stressEox, stressTempK, useEox, useTempK, failureTarget float64) (float64, error) {
	if failureTarget <= 0 || failureTarget >= 1 {
		return 0, fmt.Errorf("aging: failure target %g out of (0,1)", failureTarget)
	}
	af := math.Exp(m.GammaE*(stressEox-useEox)) *
		math.Exp(m.EaBD/boltzmannEV*(1/useTempK-1/stressTempK))
	useEta := fit.Eta * af
	w := mathx.NewWeibull(fit.Beta, useEta)
	return w.Quantile(failureTarget), nil
}
