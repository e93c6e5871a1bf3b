package aging

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// BDMode is the oxide-breakdown progression state. Which modes occur
// depends on oxide thickness (paper §3.1): thick oxides go straight to
// hard breakdown; below ~5 nm a soft breakdown precedes it; below ~2.5 nm
// the soft breakdown wears out progressively before turning hard.
type BDMode int

const (
	// Fresh: no breakdown event yet (SILC-level wear only).
	Fresh BDMode = iota
	// SoftBD: a conductive percolation path with limited current.
	SoftBD
	// ProgressiveBD: the soft path grows steadily (ultra-thin oxides).
	ProgressiveBD
	// HardBD: full loss of dielectric properties, mA-range gate current.
	HardBD
)

// String names the mode.
func (m BDMode) String() string {
	switch m {
	case SoftBD:
		return "SBD"
	case ProgressiveBD:
		return "PBD"
	case HardBD:
		return "HBD"
	default:
		return "fresh"
	}
}

// TDDBModel parameterises time-dependent dielectric breakdown with the
// exponential field ("E") model and Weibull statistics:
//
//	η(E, T, A) = EtaRef · exp(−GammaE·Eox) · exp(EaBD/kT) · (ARef/A)^(1/β)
//	P(TBD ≤ t) = 1 − exp(−(t/η)^β)
//
// with β, the Weibull slope, shrinking with oxide thickness (thin oxides
// break down with much wider statistical spread).
type TDDBModel struct {
	// EtaRef is the scale-time prefactor in seconds.
	EtaRef float64
	// GammaE is the field-acceleration factor in m/V.
	GammaE float64
	// EaBD is the thermal activation energy in eV.
	EaBD float64
	// ARef is the reference gate area in m².
	ARef float64
	// BetaPerNM sets the Weibull slope: β = max(BetaMin, BetaPerNM·Tox[nm]).
	BetaPerNM, BetaMin float64
	// GSoft and GHard are the post-breakdown gate conductances in siemens.
	GSoft, GHard float64
	// TauPBD and PPBD control progressive-breakdown growth of the soft
	// path: G(t) = GSoft·(1 + (t−tSBD)/TauPBD)^PPBD.
	TauPBD, PPBD float64
	// GSILCMax caps the stress-induced leakage current conductance that
	// builds up *before* breakdown as traps accumulate in the oxide (the
	// paper: "a stress-induced leakage current (SILC) is produced during
	// this degradation stage"). The pre-BD leak grows as
	// GSILCMax·(consumed life)^SILCExp, remaining well below GSoft.
	GSILCMax, SILCExp float64
}

// DefaultTDDB returns a parameter set anchored so that a 2 nm oxide at its
// nominal use field has a 63 % breakdown time around 10⁹–10¹⁰ s, collapsing
// by decades under accelerated fields — the standard qualification picture.
func DefaultTDDB() *TDDBModel {
	return &TDDBModel{
		EtaRef:    1.5e8,
		GammaE:    3.45e-8, // ≈1.5 decades per MV/cm
		EaBD:      0.6,
		ARef:      1e-12, // 1 µm²
		BetaPerNM: 0.45,
		BetaMin:   1.0,
		GSoft:     2e-7, // ~0.2 µA at 1 V: SBD "lower gate currents"
		GHard:     2e-3, // mA range at standard voltages, per the paper
		TauPBD:    5e7,
		PPBD:      2.2,
		GSILCMax:  2e-9, // two decades below the SBD conductance
		SILCExp:   1.6,
	}
}

// WeibullSlope returns β for an oxide thickness in nm.
func (m *TDDBModel) WeibullSlope(toxNM float64) float64 {
	b := m.BetaPerNM * toxNM
	if b < m.BetaMin {
		b = m.BetaMin
	}
	return b
}

// Eta returns the Weibull scale time (63.2 % point) for oxide field eox
// (V/m), temperature tempK, gate area in m² and thickness toxNM.
func (m *TDDBModel) Eta(eox, tempK, area, toxNM float64) float64 {
	if area <= 0 {
		panic(fmt.Sprintf("aging: non-positive gate area %g", area))
	}
	beta := m.WeibullSlope(toxNM)
	return m.EtaRef *
		math.Exp(-m.GammaE*eox) *
		math.Exp(m.EaBD/(boltzmannEV*tempK)) *
		math.Pow(m.ARef/area, 1/beta)
}

// ModesFor returns the breakdown mode sequence for an oxide thickness:
// thick oxide → {HBD}; 2.5–5 nm → {SBD, HBD}; < 2.5 nm → {SBD, PBD, HBD}.
func ModesFor(toxNM float64) []BDMode {
	switch {
	case toxNM >= 5:
		return []BDMode{HardBD}
	case toxNM >= 2.5:
		return []BDMode{SoftBD, HardBD}
	default:
		return []BDMode{SoftBD, ProgressiveBD, HardBD}
	}
}

// TDDBState tracks one device's oxide through the breakdown ladder under
// (possibly time-varying) stress. Normalised-age accounting makes the state
// exact for varying fields: the fraction of life consumed accumulates as
// Σ dt/η(stress), and breakdown fires when it crosses a Weibull-distributed
// critical value sampled once per device.
type TDDBState struct {
	Mode BDMode
	// consumed is the normalised age Σ dt/η.
	consumed float64
	// critAge is the sampled normalised age at first breakdown.
	critAge float64
	// critHBD is the sampled additional age from SBD to HBD (thick ladder).
	critHBD float64
	// tInMode is wall-clock time spent since entering the current mode.
	tInMode float64
	// leak is the present gate conductance in siemens.
	leak  float64
	toxNM float64
	beta  float64
}

// NewTDDBState samples a device's breakdown destiny. area in m², toxNM in
// nm. Uses rng for the Weibull draws; a device's fate is fixed at birth
// (its weakest percolation path), stress only sets how fast it is reached.
func (m *TDDBModel) NewTDDBState(area, toxNM float64, rng *mathx.RNG) *TDDBState {
	beta := m.WeibullSlope(toxNM)
	unit := mathx.NewWeibull(beta, 1)
	return &TDDBState{
		Mode:    Fresh,
		critAge: unit.Sample(rng),
		critHBD: unit.Sample(rng),
		toxNM:   toxNM,
		beta:    beta,
	}
}

// Advance ages the oxide by dt seconds at oxide field eox and temperature
// tempK (area in m² must match the construction-time device). It returns
// the new mode (which may be unchanged).
func (m *TDDBModel) Advance(st *TDDBState, dt, eox, tempK, area float64) BDMode {
	if dt <= 0 {
		return st.Mode
	}
	eta := m.Eta(eox, tempK, area, st.toxNM)
	switch st.Mode {
	case Fresh:
		st.consumed += dt / eta
		// SILC: trap accumulation leaks before any breakdown fires.
		frac := st.consumed / st.critAge
		if frac > 1 {
			frac = 1
		}
		st.leak = m.GSILCMax * math.Pow(frac, m.SILCExp)
		if st.consumed >= st.critAge {
			modes := ModesFor(st.toxNM)
			st.Mode = modes[0]
			st.tInMode = 0
			if st.Mode == HardBD {
				st.leak = m.GHard
			} else {
				st.leak = m.GSoft
			}
		}
	case SoftBD:
		st.tInMode += dt
		if st.toxNM < 2.5 {
			// Ultra-thin: soft BD becomes progressive immediately per the
			// paper ("SBD is followed by Progressive-BD"); we enter PBD
			// after a short latency of one tenth of TauPBD.
			if st.tInMode >= m.TauPBD/10 {
				st.Mode = ProgressiveBD
				st.tInMode = 0
			}
		} else {
			// Thicker ladder: an independent second Weibull draw governs
			// the SBD→HBD transition, accelerated by the same field law.
			st.consumed += dt / eta
			if st.consumed >= st.critAge+st.critHBD {
				st.Mode = HardBD
				st.leak = m.GHard
				st.tInMode = 0
			}
		}
	case ProgressiveBD:
		st.tInMode += dt
		// Slow gate-current growth over time (PBD signature).
		st.leak = m.GSoft * math.Pow(1+st.tInMode/m.TauPBD, m.PPBD)
		if st.leak >= m.GHard {
			st.leak = m.GHard
			st.Mode = HardBD
			st.tInMode = 0
		}
	case HardBD:
		st.tInMode += dt
		st.leak = m.GHard
	}
	return st.Mode
}

// Leak returns the present post-breakdown gate conductance in siemens.
func (st *TDDBState) Leak() float64 { return st.leak }

// MobilityFactor returns the channel-current derating associated with the
// breakdown state: the paper reports that a BD spot acts as local mobility
// reduction, with limited effect right after SBD and a significant one at
// longer times / harder breakdowns.
func (st *TDDBState) MobilityFactor() float64 {
	switch st.Mode {
	case SoftBD:
		return 0.98
	case ProgressiveBD:
		return 0.92
	case HardBD:
		return 0.80
	default:
		return 1
	}
}
