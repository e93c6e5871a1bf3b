package calib

import (
	"context"
	"fmt"
	"sort"

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
	res, err := runINL(cfg, calibrated, &variation.Spec{Name: "INL", Lo: 0, Hi: limit}, make([]float64, nMC), seed)
	if err != nil {
		return variation.YieldEstimate{}, err
	}
	// Failed and NaN instances are missing data here, out of both counts.
	return variation.YieldFromCounts(res.Stats.Pass, int(res.Stats.Moments.Count)), nil
}

// runINL fabricates len(inl) DACs at cfg, runs SSPA on each when
// calibrated, and folds each die's worst |INL| against spec (when non-nil)
// into the returned stats; die i's value also goes to inl[i].
func runINL(cfg DACConfig, calibrated bool, spec *variation.Spec, inl []float64, seed uint64) (*variation.MCResult, error) {
	camp := variation.Campaign{
		Trials: len(inl),
		Seed:   seed,
		Spec:   spec,
		Trial: func(rng *mathx.RNG, i int) (float64, error) {
			d, err := NewDAC(cfg, rng)
			if err != nil {
				return 0, err
			}
			if calibrated {
				d.CalibrateSSPA(0, rng)
			}
			inl[i] = d.MaxINL()
			return inl[i], nil
		},
	}
	return camp.Run(context.Background())
}

// RequiredSigmaUnit returns the largest unit-source sigma at which at
// least targetYield of INLYield's nMC dies meet the INL limit. This is the
// quantity that sets analog area: matching improves with device area as
// σ ∝ 1/√A (Pelgrom), so area ∝ 1/σ². A die's errors are σ·√w times its
// deviates and SSPA orders the deviates, so its worst INL is σ times its
// worst INL q at σ = 1: with q_1 <= … <= q_m over the m measured dies and
// k the least count with k/m >= targetYield, the answer is limit/q_k.
// cfg.SigmaUnit is ignored.
func RequiredSigmaUnit(cfg DACConfig, limit, targetYield float64, calibrated bool, nMC int, seed uint64) (float64, error) {
	switch {
	case targetYield <= 0 || targetYield >= 1:
		return 0, fmt.Errorf("calib: target yield %g out of (0,1)", targetYield)
	case nMC <= 0 || limit <= 0:
		return 0, fmt.Errorf("calib: need nMC > 0 and an INL limit > 0, got %d and %g", nMC, limit)
	}
	cfg.SigmaUnit = 1
	q := make([]float64, nMC)
	res, err := runINL(cfg, calibrated, nil, q, seed)
	if err != nil {
		return 0, err
	}
	// Failed and NaN dies are missing data, as in INLYield. A failed die's
	// entry stays 0 and a NaN die's is NaN; both sort before every
	// measured die, so the measured dies are the last m.
	m := int(res.Stats.Moments.Count)
	if m == 0 {
		return 0, fmt.Errorf("calib: none of %d dies measured (first failure: %q)", nMC, res.Stats.First)
	}
	sort.Float64s(q)
	k := 1
	for float64(k)/float64(m) < targetYield {
		k++
	}
	if qk := q[nMC-m+k-1]; qk > 0 {
		return limit / qk, nil
	}
	return 0, fmt.Errorf("calib: INL is zero at any σ")
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
