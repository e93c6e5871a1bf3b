// Package device implements the transistor-level compact models used by the
// circuit simulator and the reliability analyses: an EKV-flavoured MOSFET
// model that is smooth from subthreshold through saturation (so Newton
// iterations converge reliably), a junction diode, and technology cards for
// CMOS nodes from 0.8 µm down to 32 nm.
//
// The MOSFET model exposes explicit degradation hooks (threshold shift,
// mobility reduction, output-conductance change, post-breakdown gate
// leakage) so the aging package can "wear out" a device exactly the way the
// paper's Section 3 describes: NBTI (§3.3) and HCI (§3.2) shift VT and
// carrier mobility, TDDB (§3.1) adds a gate-leakage path and a local
// mobility collapse. The technology cards carry the per-node Pelgrom AVT
// coefficients behind Section 2's Fig. 1 trend.
package device

import (
	"fmt"
	"math"
)

// MOSType distinguishes n-channel from p-channel devices.
type MOSType int

const (
	// NMOS is an n-channel device.
	NMOS MOSType = iota
	// PMOS is a p-channel device.
	PMOS
)

// String returns "nmos" or "pmos".
func (t MOSType) String() string {
	if t == PMOS {
		return "pmos"
	}
	return "nmos"
}

// Thermal voltage kT/q at T kelvin.
func thermalVoltage(tempK float64) float64 {
	const kOverQ = 8.617333262e-5 // V/K
	return kOverQ * tempK
}

// MOSParams is the full parameter set of one MOSFET instance. Voltages are
// in volts, lengths in metres, KP in A/V².
type MOSParams struct {
	Type MOSType
	// W and L are the drawn channel width and length in metres.
	W, L float64
	// VT0 is the zero-bias threshold voltage magnitude (positive for both
	// device types).
	VT0 float64
	// KP is the transconductance parameter µ·Cox in A/V².
	KP float64
	// Lambda is the channel-length-modulation coefficient in 1/V.
	Lambda float64
	// Gamma is the body-effect coefficient in sqrt(V).
	Gamma float64
	// Phi is twice the Fermi potential in V (typically ~0.7 V).
	Phi float64
	// N is the subthreshold slope factor (typically 1.2-1.5).
	N float64
	// TempK is the device temperature in kelvin.
	TempK float64
	// Tox is the gate-oxide thickness in metres (used by the reliability
	// models for field computation and by mismatch trend models).
	Tox float64
}

// Validate reports whether the parameter set is physically usable.
func (p *MOSParams) Validate() error {
	switch {
	case p.W <= 0 || p.L <= 0:
		return fmt.Errorf("device: non-positive geometry W=%g L=%g", p.W, p.L)
	case p.KP <= 0:
		return fmt.Errorf("device: non-positive KP %g", p.KP)
	case p.N < 1:
		return fmt.Errorf("device: slope factor N=%g < 1", p.N)
	case p.Phi <= 0:
		return fmt.Errorf("device: non-positive Phi %g", p.Phi)
	case p.TempK <= 0:
		return fmt.Errorf("device: non-positive temperature %g", p.TempK)
	case p.Tox <= 0:
		return fmt.Errorf("device: non-positive Tox %g", p.Tox)
	}
	return nil
}

// Mismatch is the per-instance process variation applied to a device, as
// sampled by the variation package from the Pelgrom model (Eq. 1 of the
// paper).
type Mismatch struct {
	// DeltaVT0 is the threshold-voltage deviation in volts.
	DeltaVT0 float64
	// BetaFactor multiplies the current factor (1.0 means nominal); it
	// models σ(Δβ)/β.
	BetaFactor float64
	// DeltaGamma is the body-factor deviation in sqrt(V).
	DeltaGamma float64
}

// NominalMismatch returns the identity mismatch.
func NominalMismatch() Mismatch { return Mismatch{BetaFactor: 1} }

// Damage is the accumulated wear-out state of a device, produced by the
// aging package. A zero-value Damage is *not* fresh (BetaFactor semantics);
// use FreshDamage.
type Damage struct {
	// DeltaVT is the magnitude increase of the threshold voltage in volts
	// (NBTI on pMOS, HCI on nMOS both increase |VT|).
	DeltaVT float64
	// MobilityFactor multiplies KP; 1.0 is fresh, degradation pushes it
	// below 1 (interface traps reduce carrier mobility).
	MobilityFactor float64
	// LambdaFactor multiplies Lambda; HCI-generated interface states near
	// the drain degrade the output conductance, modelled as increased
	// channel-length modulation.
	LambdaFactor float64
	// GateLeak is an added gate conductance in siemens produced by oxide
	// breakdown; it is split equally between gate-source and gate-drain
	// paths.
	GateLeak float64
}

// FreshDamage returns the no-degradation state.
func FreshDamage() Damage {
	return Damage{MobilityFactor: 1, LambdaFactor: 1}
}

// Add returns the composition of two damage states: VT shifts add, mobility
// and lambda factors multiply, gate-leak conductances add.
func (d Damage) Add(other Damage) Damage {
	return Damage{
		DeltaVT:        d.DeltaVT + other.DeltaVT,
		MobilityFactor: d.MobilityFactor * other.MobilityFactor,
		LambdaFactor:   d.LambdaFactor * other.LambdaFactor,
		GateLeak:       d.GateLeak + other.GateLeak,
	}
}

// OperatingPoint is the result of evaluating the large-signal model at one
// bias point.
type OperatingPoint struct {
	// ID is the drain current in amperes, defined as flowing into the
	// drain terminal. For a PMOS in normal operation ID is negative.
	ID float64
	// Gm is dID/dVGS in siemens.
	Gm float64
	// Gds is dID/dVDS in siemens.
	Gds float64
	// Gmb is dID/dVBS in siemens.
	Gmb float64
	// VTeff is the effective threshold magnitude including body effect,
	// mismatch and damage.
	VTeff float64
	// Region is a coarse classification: "off", "triode" or "saturation".
	Region string
}

// Mosfet bundles parameters with instance-specific mismatch and damage. The
// zero value is unusable; use NewMosfet.
type Mosfet struct {
	Params   MOSParams
	Mismatch Mismatch
	Damage   Damage
}

// NewMosfet returns a fresh, nominal device with the given parameters.
func NewMosfet(p MOSParams) *Mosfet {
	return &Mosfet{Params: p, Mismatch: NominalMismatch(), Damage: FreshDamage()}
}

// Temperature-scaling constants: carrier mobility falls as (T/300)^-1.5
// (phonon scattering) and the threshold magnitude drops ~1 mV/K — the
// textbook silicon values. Both are anchored at 300 K, so parameter cards
// extracted at room temperature are reproduced exactly there.
const (
	refTempK    = 300.0
	mobilityExp = -1.5
	vtTempSlope = -1e-3 // V/K
)

// Beta returns the effective current factor KP·W/L including mismatch,
// mobility degradation and temperature scaling.
func (m *Mosfet) Beta() float64 {
	tScale := math.Pow(m.Params.TempK/refTempK, mobilityExp)
	return m.Params.KP * m.Params.W / m.Params.L * tScale *
		m.Mismatch.BetaFactor * m.Damage.MobilityFactor
}

// VT returns the effective zero-body-bias threshold magnitude including
// mismatch, damage and temperature scaling.
func (m *Mosfet) VT() float64 {
	return m.Params.VT0 + vtTempSlope*(m.Params.TempK-refTempK) +
		m.Mismatch.DeltaVT0 + m.Damage.DeltaVT
}

// ekvTerm returns the EKV interpolation function F(x) = ln²(1 + exp(x/2))
// — ~exp(x) deep in weak inversion, ~(x/2)² in strong inversion — and its
// derivative F′(x) = ln(1+exp(x/2)) · sigmoid(x/2). It computes the
// softplus ln(1+exp(x/2)) once for both, without overflow, and where
// x/2 < 0 the sigmoid reuses the softplus's exp(x/2).
func ekvTerm(x float64) (f, fPrime float64) {
	h := x / 2
	var l, s float64
	if h >= 0 {
		if h > 40 {
			l = h
		} else {
			l = math.Log1p(math.Exp(h))
		}
		s = 1 / (1 + math.Exp(-h))
	} else { // h < 0, or NaN
		e := math.Exp(h)
		if h < -40 {
			l = e
		} else {
			l = math.Log1p(e)
		}
		s = e / (1 + e)
	}
	return l * l, l * s
}

// Eval computes the drain current and small-signal conductances at the
// terminal voltages vgs, vds, vbs (all source-referred, in the actual node
// convention — no sign flipping required by the caller for PMOS).
//
// The model is an EKV-style charge-sheet interpolation:
//
//	ID = Ispec · [F((VP-VS)/Vt) − F((VP-VD)/Vt)] · (1 + λ·VDSeff)
//
// with VP = (VGS − VTeff)/n and F(x) = ln²(1+e^{x/2}). It conducts
// symmetrically for reversed VDS, which matters for pass gates, and is
// C¹-smooth everywhere.
func (m *Mosfet) Eval(vgs, vds, vbs float64) OperatingPoint {
	p := &m.Params
	sign := 1.0
	if p.Type == PMOS {
		sign = -1
		vgs, vds, vbs = -vgs, -vds, -vbs
	}
	// Source-drain swap: evaluate with the lower-potential terminal acting
	// as the source, which makes the model exactly symmetric under
	// terminal exchange (as a physical MOSFET is).
	swapped := false
	if vds < 0 {
		swapped = true
		vgs, vds, vbs = vgs-vds, -vds, vbs-vds
	}
	vt := thermalVoltage(p.TempK)
	n := p.N

	// Body effect on the threshold (vsb = -vbs in flipped space). For
	// vsb < 0 (forward body bias) the square root is extrapolated
	// linearly, which keeps the model C¹-smooth and matches the physical
	// trend of VT lowering.
	vsb := -vbs
	gamma := p.Gamma + m.Mismatch.DeltaGamma
	phi := p.Phi
	sqrtPhi := math.Sqrt(phi)
	var sq, dsq float64
	if vsb >= 0 {
		sq = math.Sqrt(phi + vsb)
		dsq = 1 / (2 * sq)
	} else {
		sq = sqrtPhi + vsb/(2*sqrtPhi)
		dsq = 1 / (2 * sqrtPhi)
	}
	vteff := m.VT() + gamma*(sq-sqrtPhi)
	dvtdvsb := gamma * dsq

	beta := m.Beta()
	ispec := 2 * n * beta * vt * vt

	vp := (vgs - vteff) / n
	xf := vp / vt
	xr := (vp - vds) / vt
	ff, dfdxf := ekvTerm(xf)
	fr, dfdxr := ekvTerm(xr)

	lambda := p.Lambda * m.Damage.LambdaFactor
	clm := 1 + lambda*vds // vds >= 0 after the swap
	dclm := lambda

	idCore := ispec * (ff - fr)
	id := idCore * clm

	// Derivatives in flipped space.
	// dID/dVGS: VP depends on VGS with slope 1/n.
	gm := ispec * (dfdxf - dfdxr) / (n * vt) * clm
	// dID/dVDS: xr depends on VDS with slope -1/vt; plus CLM term.
	gds := ispec*dfdxr/vt*clm + idCore*dclm
	// dID/dVBS: vsb = -vbs, vteff rises with vsb, vp falls.
	// dvp/dvbs = -dvteff/dvbs / n = dvtdvsb/n (since dvsb/dvbs = -1).
	gmb := ispec * (dfdxf - dfdxr) * dvtdvsb / (n * vt) * clm

	region := classifyRegion(vgs, vds, vteff)

	// Undo the source-drain swap: I(vgs,vds,vbs) = -I'(vgs-vds,-vds,vbs-vds),
	// so the chain rule gives gm=-gm', gds=gm'+gds'+gmb', gmb=-gmb'.
	if swapped {
		id, gm, gds, gmb = -id, -gm, gm+gds+gmb, -gmb
	}

	// Map back to actual polarity: ID flips sign, conductances are
	// invariant (double sign flip).
	return OperatingPoint{
		ID:     sign * id,
		Gm:     gm,
		Gds:    gds,
		Gmb:    gmb,
		VTeff:  vteff,
		Region: region,
	}
}

func classifyRegion(vgs, vds, vteff float64) string {
	vov := vgs - vteff
	switch {
	case vov < 0:
		return "off"
	case math.Abs(vds) < vov:
		return "triode"
	default:
		return "saturation"
	}
}

// GateCapacitance returns the lumped gate-source and gate-drain
// capacitances in farads. A Meyer-style 50/50 split of the oxide
// capacitance is used; overlap capacitance is folded in via a 10 % adder.
// Constant capacitances keep the transient Jacobian linear in C while
// preserving realistic RC time scales.
func (m *Mosfet) GateCapacitance() (cgs, cgd float64) {
	const eps0 = 8.8541878128e-12 // F/m
	const epsRel = 3.9            // SiO2
	cox := eps0 * epsRel / m.Params.Tox * m.Params.W * m.Params.L
	half := 0.55 * cox // 50% channel share + 10% overlap adder
	return half, half
}

// OxideField returns the vertical oxide field magnitude in V/m for a given
// gate-source voltage; the aging models accelerate with this field.
func (m *Mosfet) OxideField(vgs float64) float64 {
	return math.Abs(vgs) / m.Params.Tox
}

// LateralField returns the peak lateral channel field estimate in V/m used
// by the hot-carrier model: the drain-saturation voltage drop across a
// pinch-off region of length ~0.2·L.
func (m *Mosfet) LateralField(vds float64) float64 {
	lpinch := 0.2 * m.Params.L
	return math.Abs(vds) / lpinch
}

// InversionCharge returns an estimate of the inversion-layer charge per
// unit area (C/m²) at the given overdrive, Qi ≈ Cox'·(VGS−VT), clamped at
// weak inversion.
func (m *Mosfet) InversionCharge(vgs float64) float64 {
	const eps0 = 8.8541878128e-12
	const epsRel = 3.9
	coxPrime := eps0 * epsRel / m.Params.Tox
	vov := math.Abs(vgs) - m.VT()
	if vov < 0.01 {
		vov = 0.01
	}
	return coxPrime * vov
}
