package device

import (
	"fmt"
	"math"
	"sort"
)

// Technology is a CMOS process card: the per-node constants needed to build
// devices, sample mismatch and run the reliability models. Field names use
// the units noted in comments.
type Technology struct {
	// Name identifies the node, e.g. "65nm".
	Name string
	// Lmin is the minimum drawn channel length in metres.
	Lmin float64
	// VDD is the nominal supply voltage in volts.
	VDD float64
	// ToxNM is the gate-oxide thickness in nanometres.
	ToxNM float64
	// VT0N and VT0P are nominal threshold magnitudes in volts.
	VT0N, VT0P float64
	// KPN and KPP are the transconductance parameters in A/V².
	KPN, KPP float64
	// LambdaN and LambdaP are channel-length-modulation coefficients at
	// minimum length, in 1/V.
	LambdaN, LambdaP float64
	// Gamma is the body-effect coefficient in sqrt(V).
	Gamma float64
	// AVT is the Pelgrom threshold-mismatch coefficient in V·m (so that
	// σ(ΔVT) = AVT/sqrt(W·L) with W, L in metres).
	AVT float64
	// ABeta is the Pelgrom current-factor mismatch coefficient, fractional
	// per metre: σ(Δβ/β) = ABeta/sqrt(W·L).
	ABeta float64
	// SVT is the distance coefficient of Eq. 1 in V/m.
	SVT float64
}

// Tox returns the oxide thickness in metres.
func (t *Technology) Tox() float64 { return t.ToxNM * 1e-9 }

// AVTmVum returns AVT in the conventional mV·µm units used in Fig. 1.
//
// paper: §2 — TestTechAVTConsistentWithTrend asserts that every node's
// AVT sits on the Fig. 1 trend against oxide thickness.
func (t *Technology) AVTmVum() float64 { return t.AVT * 1e3 * 1e6 }

// TuinhoutBenchmarkAVT returns the AVT (in mV·µm) predicted by Tuinhout's
// 1 mV·µm per nm of gate oxide rule for an oxide thickness in nm. The paper
// (Fig. 1) shows this rule holding down to ~10 nm oxides and breaking below.
func TuinhoutBenchmarkAVT(toxNM float64) float64 { return 1.0 * toxNM }

// AVTTrend models the measured AVT(Tox) trend of Fig. 1 in mV·µm: linear at
// 1 mV·µm/nm above 10 nm and flattening below, where matching improves
// "only slightly" with further oxide scaling. The two branches are
// continuous at 10 nm.
func AVTTrend(toxNM float64) float64 {
	if toxNM <= 0 {
		panic(fmt.Sprintf("device: non-positive Tox %g nm", toxNM))
	}
	const breakNM = 10.0
	if toxNM >= breakNM {
		return TuinhoutBenchmarkAVT(toxNM)
	}
	// Below the breakpoint the slope drops to 0.7 mV·µm/nm with a 3 mV·µm
	// offset; continuous at 10 nm (0.7*10+3 = 10).
	return 3.0 + 0.7*toxNM
}

// nodes is the built-in technology table, oldest first. AVT values follow
// AVTTrend; electrical parameters are representative textbook/ITRS-flavour
// numbers, adequate for trend reproduction (we never claim absolute match).
var nodes = []Technology{
	{Name: "800nm", Lmin: 800e-9, VDD: 5.0, ToxNM: 15.0, VT0N: 0.85, VT0P: 0.95, KPN: 90e-6, KPP: 30e-6, LambdaN: 0.02, LambdaP: 0.03, Gamma: 0.6},
	{Name: "500nm", Lmin: 500e-9, VDD: 3.3, ToxNM: 12.0, VT0N: 0.75, VT0P: 0.85, KPN: 110e-6, KPP: 38e-6, LambdaN: 0.03, LambdaP: 0.04, Gamma: 0.55},
	{Name: "350nm", Lmin: 350e-9, VDD: 3.3, ToxNM: 7.5, VT0N: 0.60, VT0P: 0.70, KPN: 140e-6, KPP: 48e-6, LambdaN: 0.04, LambdaP: 0.05, Gamma: 0.55},
	{Name: "250nm", Lmin: 250e-9, VDD: 2.5, ToxNM: 5.0, VT0N: 0.52, VT0P: 0.58, KPN: 180e-6, KPP: 60e-6, LambdaN: 0.06, LambdaP: 0.08, Gamma: 0.5},
	{Name: "180nm", Lmin: 180e-9, VDD: 1.8, ToxNM: 4.0, VT0N: 0.45, VT0P: 0.50, KPN: 230e-6, KPP: 80e-6, LambdaN: 0.08, LambdaP: 0.11, Gamma: 0.5},
	{Name: "130nm", Lmin: 130e-9, VDD: 1.2, ToxNM: 2.3, VT0N: 0.38, VT0P: 0.42, KPN: 290e-6, KPP: 100e-6, LambdaN: 0.11, LambdaP: 0.15, Gamma: 0.45},
	{Name: "90nm", Lmin: 90e-9, VDD: 1.1, ToxNM: 2.0, VT0N: 0.35, VT0P: 0.38, KPN: 340e-6, KPP: 120e-6, LambdaN: 0.15, LambdaP: 0.20, Gamma: 0.42},
	{Name: "65nm", Lmin: 65e-9, VDD: 1.1, ToxNM: 1.8, VT0N: 0.33, VT0P: 0.35, KPN: 400e-6, KPP: 140e-6, LambdaN: 0.19, LambdaP: 0.25, Gamma: 0.40},
	{Name: "45nm", Lmin: 45e-9, VDD: 1.0, ToxNM: 1.4, VT0N: 0.31, VT0P: 0.33, KPN: 450e-6, KPP: 160e-6, LambdaN: 0.24, LambdaP: 0.30, Gamma: 0.38},
	{Name: "32nm", Lmin: 32e-9, VDD: 0.9, ToxNM: 1.2, VT0N: 0.30, VT0P: 0.31, KPN: 500e-6, KPP: 180e-6, LambdaN: 0.30, LambdaP: 0.36, Gamma: 0.35},
}

func init() {
	for i := range nodes {
		t := &nodes[i]
		t.AVT = AVTTrend(t.ToxNM) * 1e-3 * 1e-6 // mV·µm -> V·m
		t.ABeta = 1.5e-8                        // ~1.5 %·µm expressed per metre
		t.SVT = 3e-6 * 1e-2                     // 3 µV/µm expressed in V/m... see below
	}
	// SVT: long-range gradient term of Eq. 1; 2 µV per µm of separation is a
	// representative value, i.e. 2e-6 V / 1e-6 m = 2 V/m... the literature
	// quotes S_VT around 1-4 µV/µm, which is V per metre × 1e0; set it
	// directly:
	for i := range nodes {
		nodes[i].SVT = 2.0 // V/m ≡ 2 µV/µm
	}
}

// Nodes returns the names of all built-in technologies, oldest first.
func Nodes() []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name
	}
	return out
}

// TechByName returns the technology card with the given name.
func TechByName(name string) (*Technology, error) {
	for i := range nodes {
		if nodes[i].Name == name {
			t := nodes[i]
			return &t, nil
		}
	}
	return nil, fmt.Errorf("device: unknown technology %q (have %v)", name, Nodes())
}

// MustTech is TechByName that panics on unknown names; for tests and
// examples.
func MustTech(name string) *Technology {
	t, err := TechByName(name)
	if err != nil {
		panic(err)
	}
	return t
}

// NMOSParams builds nominal n-channel parameters for this technology at
// geometry (w, l) metres and temperature tempK.
func (t *Technology) NMOSParams(w, l, tempK float64) MOSParams {
	return MOSParams{
		Type: NMOS, W: w, L: l,
		VT0: t.VT0N, KP: t.KPN,
		Lambda: t.LambdaN * t.Lmin / l, // CLM weakens with longer channels
		Gamma:  t.Gamma, Phi: 0.7, N: 1.3,
		TempK: tempK, Tox: t.Tox(),
	}
}

// PMOSParams builds nominal p-channel parameters for this technology.
func (t *Technology) PMOSParams(w, l, tempK float64) MOSParams {
	return MOSParams{
		Type: PMOS, W: w, L: l,
		VT0: t.VT0P, KP: t.KPP,
		Lambda: t.LambdaP * t.Lmin / l,
		Gamma:  t.Gamma, Phi: 0.7, N: 1.3,
		TempK: tempK, Tox: t.Tox(),
	}
}

// SigmaVT returns the Pelgrom σ(ΔVT) in volts for a device pair of
// geometry (w, l) metres at separation d metres, per Eq. 1 of the paper:
//
//	σ²(ΔVT) = AVT²/(W·L) + SVT²·D²
func (t *Technology) SigmaVT(w, l, d float64) float64 {
	if w <= 0 || l <= 0 {
		panic(fmt.Sprintf("device: non-positive geometry %g×%g", w, l))
	}
	area := t.AVT * t.AVT / (w * l)
	dist := t.SVT * t.SVT * d * d
	return math.Sqrt(area + dist)
}

// SigmaBeta returns the relative current-factor mismatch σ(Δβ/β) for
// geometry (w, l) metres.
func (t *Technology) SigmaBeta(w, l float64) float64 {
	if w <= 0 || l <= 0 {
		panic(fmt.Sprintf("device: non-positive geometry %g×%g", w, l))
	}
	return t.ABeta / math.Sqrt(w*l)
}

// SortedByTox returns the built-in technologies ordered by decreasing oxide
// thickness; this is the x-axis ordering of Fig. 1.
func SortedByTox() []Technology {
	out := append([]Technology(nil), nodes...)
	sort.Slice(out, func(i, j int) bool { return out[i].ToxNM > out[j].ToxNM })
	return out
}
