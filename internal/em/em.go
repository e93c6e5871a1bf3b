// Package em implements the electromigration analysis of the paper's
// Section 3.4: Black's mean-time-to-failure law (Eq. 4), the Blech
// short-length immunity criterion, the bamboo narrow-wire effect, and the
// layout-level mitigations (wire widening, slotted wires, via reservoirs)
// wrapped in an EM sign-off checker that walks an interconnect network.
package em

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// boltzmannEV is k in eV/K.
const boltzmannEV = 8.617333262e-5

// Wire is one interconnect segment.
type Wire struct {
	// Name identifies the segment.
	Name string
	// Width and Thickness are the cross-section in metres.
	Width, Thickness float64
	// Length is the segment length in metres.
	Length float64
	// Current is the DC (or RMS-equivalent) current in amperes.
	Current float64
	// Slotted marks a wide wire laid out with slots, which improves EM
	// robustness by forcing bamboo-like grain structure.
	Slotted bool
	// ViaReservoir marks vias with reservoir extensions (metal overhang),
	// which buys extra void-growth margin.
	ViaReservoir bool
}

// Area returns the cross-section area in m².
func (w *Wire) Area() float64 { return w.Width * w.Thickness }

// CurrentDensity returns |J| in A/m².
func (w *Wire) CurrentDensity() float64 {
	a := w.Area()
	if a <= 0 {
		panic(fmt.Sprintf("em: wire %q has non-positive cross-section", w.Name))
	}
	return math.Abs(w.Current) / a
}

// BlackModel parameterises Eq. 4: MTTF = C · A / J^N · exp(Ea/kT).
type BlackModel struct {
	// C is the technology prefactor; units chosen so MTTF is in seconds
	// with A in m² and J in A/m².
	C float64
	// N is the current-density exponent (2 in Black's classic form).
	N float64
	// Ea is the activation energy in eV (0.7-0.9 for Al, ~0.9 for Cu).
	Ea float64
	// BlechProduct is the critical j·L product in A/m below which the
	// back-stress halts migration entirely.
	BlechProduct float64
	// GrainSize is the median metal grain diameter in metres; wires
	// narrower than this develop a bamboo structure.
	GrainSize float64
	// BambooBonus multiplies the MTTF of bamboo wires.
	BambooBonus float64
	// SlotBonus multiplies the MTTF of slotted wide wires.
	SlotBonus float64
	// ReservoirBonus multiplies the MTTF of via-reservoir segments.
	ReservoirBonus float64
}

// DefaultBlack returns a copper-flavoured calibration: a 0.2×0.2 µm wire
// carrying 0.1 mA (J = 2.5 MA/cm²) at 378 K has an MTTF of a few years,
// with ~0.9 eV activation.
func DefaultBlack() *BlackModel {
	return &BlackModel{
		C:              1.6e28,
		N:              2,
		Ea:             0.9,
		BlechProduct:   3e5, // 3000 A/cm
		GrainSize:      0.3e-6,
		BambooBonus:    3,
		SlotBonus:      2,
		ReservoirBonus: 1.5,
	}
}

// MTTF returns the mean time to failure in seconds of a wire at
// temperature tempK, per Eq. 4 with the layout bonuses applied. Wires that
// satisfy the Blech criterion are immortal (+Inf). Zero-current wires are
// immortal too.
func (m *BlackModel) MTTF(w *Wire, tempK float64) float64 {
	j := w.CurrentDensity()
	if j == 0 {
		return math.Inf(1)
	}
	if m.BlechImmune(w) {
		return math.Inf(1)
	}
	mttf := m.C * w.Area() / math.Pow(j, m.N) * math.Exp(m.Ea/(boltzmannEV*tempK))
	if m.IsBamboo(w) {
		mttf *= m.BambooBonus
	}
	if w.Slotted {
		mttf *= m.SlotBonus
	}
	if w.ViaReservoir {
		mttf *= m.ReservoirBonus
	}
	return mttf
}

// BlechImmune reports whether the wire's j·L product is below the critical
// back-stress threshold, making it immune to EM ("wires with a limited
// length have been shown to be insensitive to EM").
func (m *BlackModel) BlechImmune(w *Wire) bool {
	return w.CurrentDensity()*w.Length < m.BlechProduct
}

// IsBamboo reports whether the wire is narrow enough for bamboo grain
// structure ("better EM results with wire widths smaller than a particular
// value").
func (m *BlackModel) IsBamboo(w *Wire) bool {
	return w.Width < m.GrainSize
}

// JMax returns the maximum allowed current density (A/m²) for a target
// lifetime at tempK for a wire of area a, inverting Eq. 4 (without layout
// bonuses — they are margin, not entitlement).
func (m *BlackModel) JMax(targetLife, tempK, area float64) float64 {
	if targetLife <= 0 || area <= 0 {
		panic(fmt.Sprintf("em: bad JMax arguments life=%g area=%g", targetLife, area))
	}
	return math.Pow(m.C*area*math.Exp(m.Ea/(boltzmannEV*tempK))/targetLife, 1/m.N)
}

// WidthFix returns the minimum width (m) that brings the wire to the
// target lifetime at tempK keeping its thickness and current — the
// paper's primary mitigation: "wires must be widened to reduce the
// degradation". Both J and A depend on width, so the closed form follows
// from MTTF ∝ W^(N+1).
func (m *BlackModel) WidthFix(w *Wire, targetLife, tempK float64) float64 {
	cur := m.MTTF(w, tempK)
	if math.IsInf(cur, 1) || cur >= targetLife {
		return w.Width
	}
	// MTTF ∝ Area/J^N = (W·T)^(N+1) / |I|^N · const, so scale width by
	// (target/cur)^(1/(N+1)).
	return w.Width * math.Pow(targetLife/cur, 1/(m.N+1))
}

// Violation is one failed EM check.
type Violation struct {
	Wire *Wire
	// MTTF is the computed lifetime in seconds.
	MTTF float64
	// JdensityAm2 is the current density in A/m².
	JdensityAm2 float64
	// SuggestedWidth is the widening fix in metres.
	SuggestedWidth float64
}

// Report is the result of an EM sign-off pass.
type Report struct {
	// TargetLife is the required lifetime in seconds.
	TargetLife float64
	// TempK is the analysis temperature.
	TempK float64
	// Checked counts analysed wires, Immune the Blech-immune subset.
	Checked, Immune int
	// Violations lists failing wires, worst first.
	Violations []Violation
	// WorstMTTF is the shortest lifetime seen (Inf when all immune).
	WorstMTTF float64
	// WorstWire names the wire with the shortest lifetime.
	WorstWire string
}

// Pass reports whether the network meets the lifetime target.
func (r *Report) Pass() bool { return len(r.Violations) == 0 }

// Check runs EM sign-off over a set of wires against a lifetime target.
func (m *BlackModel) Check(wires []*Wire, targetLife, tempK float64) *Report {
	pm := met.Load()
	var sp obs.Span
	if pm != nil {
		sp = obs.StartSpan(pm.checkSeconds)
		defer func() { sp.End() }()
	}
	r := &Report{TargetLife: targetLife, TempK: tempK, WorstMTTF: math.Inf(1)}
	for _, w := range wires {
		r.Checked++
		if m.BlechImmune(w) {
			r.Immune++
			continue
		}
		mttf := m.MTTF(w, tempK)
		if mttf < r.WorstMTTF {
			r.WorstMTTF = mttf
			r.WorstWire = w.Name
		}
		if mttf < targetLife {
			r.Violations = append(r.Violations, Violation{
				Wire:           w,
				MTTF:           mttf,
				JdensityAm2:    w.CurrentDensity(),
				SuggestedWidth: m.WidthFix(w, targetLife, tempK),
			})
		}
	}
	sort.Slice(r.Violations, func(i, j int) bool {
		return r.Violations[i].MTTF < r.Violations[j].MTTF
	})
	if pm != nil {
		pm.wiresChecked.Add(int64(r.Checked))
		pm.violations.Add(int64(len(r.Violations)))
	}
	return r
}

// SeriesMTTF combines per-segment lifetimes into a net lifetime under the
// weakest-link (series) assumption with exponential failure rates:
// 1/MTTF_net = Σ 1/MTTF_i.
func SeriesMTTF(mttfs []float64) float64 {
	sum := 0.0
	for _, m := range mttfs {
		if m <= 0 {
			return 0
		}
		if !math.IsInf(m, 1) {
			sum += 1 / m
		}
	}
	if sum == 0 {
		return math.Inf(1)
	}
	return 1 / sum
}

// Resistivity is the effective resistivity of damascene copper
// interconnect in Ω·m: bulk 1.7e-8 Ω·m plus ~30 % for barrier and
// scattering.
const Resistivity = 2.2e-8

// WireResistance returns the electrical resistance of a wire segment from
// its geometry: R = ρ·L/(W·T) with ρ = Resistivity. Parasitic-aware flows
// use it to generate the resistors that carry wire currents in the
// electrical netlist.
//
// test seam: the jobspec wear-out tests check through it that each wire
// synthesized from a deck resistor reproduces that resistor's value.
func WireResistance(w *Wire) float64 {
	return Resistivity * w.Length / w.Area()
}
