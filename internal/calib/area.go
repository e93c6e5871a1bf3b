package calib

import (
	"context"
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/variation"
)

// INLYield estimates the fraction of fabricated DACs meeting |INL| <=
// limit (LSB) at the given unit-source sigma, over nMC Monte-Carlo
// fabrications. calibrated selects whether SSPA runs on each instance.
// Deterministic in (cfg, seed).
func INLYield(cfg DACConfig, limit float64, calibrated bool, nMC int, seed uint64) (variation.YieldEstimate, error) {
	if nMC <= 0 {
		return variation.YieldEstimate{}, fmt.Errorf("calib: nMC must be positive")
	}
	camp := variation.Campaign{
		Trials: nMC,
		Seed:   seed,
		Spec:   &variation.Spec{Name: "INL", Lo: 0, Hi: limit},
		Trial: func(rng *mathx.RNG, _ int) (float64, error) {
			d, err := NewDAC(cfg, rng)
			if err != nil {
				return 0, err
			}
			if calibrated {
				d.CalibrateSSPA(0, rng)
			}
			return d.MaxINL(), nil
		},
	}
	res, err := camp.Run(context.Background())
	if err != nil {
		return variation.YieldEstimate{}, err
	}
	// Failed and NaN instances are missing data here, out of both counts.
	return variation.YieldFromCounts(res.Stats.Pass, int(res.Stats.Moments.Count)), nil
}

// RequiredSigmaUnit returns the largest unit-source sigma that still meets
// the INL limit with at least targetYield, found by bisection over
// Monte-Carlo yield. This is the quantity that sets analog area: matching
// improves with device area as σ ∝ 1/√A (Pelgrom), so area ∝ 1/σ².
func RequiredSigmaUnit(cfg DACConfig, limit, targetYield float64, calibrated bool, nMC int, seed uint64) (float64, error) {
	if targetYield <= 0 || targetYield >= 1 {
		return 0, fmt.Errorf("calib: target yield %g out of (0,1)", targetYield)
	}
	meets := func(sigma float64) bool {
		c := cfg
		c.SigmaUnit = sigma
		y, err := INLYield(c, limit, calibrated, nMC, seed)
		if err != nil {
			return false
		}
		return y.Yield >= targetYield
	}
	lo, hi := 1e-6, 0.5
	if !meets(lo) {
		return 0, fmt.Errorf("calib: spec unreachable even at σ=%g", lo)
	}
	if meets(hi) {
		return hi, nil
	}
	for i := 0; i < 40; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection, σ spans decades
		if meets(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// AreaStudy is the Fig. 5 reproduction result.
type AreaStudy struct {
	// SigmaIntrinsic is the unit-source sigma an uncalibrated DAC needs.
	SigmaIntrinsic float64
	// SigmaCalibrated is the sigma the SSPA-calibrated DAC tolerates.
	SigmaCalibrated float64
	// AnalogAreaRatio = (SigmaIntrinsic/SigmaCalibrated)², the calibrated
	// DAC's analog area as a fraction of the intrinsic-accuracy one
	// (Pelgrom: area ∝ 1/σ²). The paper reports ~6 %.
	AnalogAreaRatio float64
}

// RunAreaStudy computes the area ratio for a configuration and INL limit
// (the paper uses INL < 0.5 LSB) at the given yield target.
func RunAreaStudy(cfg DACConfig, limit, targetYield float64, nMC int, seed uint64) (*AreaStudy, error) {
	si, err := RequiredSigmaUnit(cfg, limit, targetYield, false, nMC, seed)
	if err != nil {
		return nil, fmt.Errorf("calib: intrinsic sigma search: %w", err)
	}
	sc, err := RequiredSigmaUnit(cfg, limit, targetYield, true, nMC, seed)
	if err != nil {
		return nil, fmt.Errorf("calib: calibrated sigma search: %w", err)
	}
	r := si / sc
	return &AreaStudy{
		SigmaIntrinsic:  si,
		SigmaCalibrated: sc,
		AnalogAreaRatio: r * r,
	}, nil
}
