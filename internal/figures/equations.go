package figures

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/aging"
	"repro/internal/device"
	"repro/internal/em"
	"repro/internal/mathx"
	"repro/internal/report"
	"repro/internal/variation"
)

// Eq1Result verifies the Pelgrom law (Eq. 1) by MC extraction.
type Eq1Result struct {
	// InvSqrtArea is 1/√(W·L) in 1/m.
	InvSqrtArea []float64
	// SigmaVT is the extracted σ(ΔVT) in volts at zero distance.
	SigmaVT []float64
	// FitSlopeR2 is the r² of the linear fit σ vs 1/√area (should be ~1).
	FitSlopeR2 float64
	// FitAVT is the fitted AVT in V·m.
	FitAVT float64
	// DistanceGrowth is σ(50µm apart)/σ(0) for the smallest area (>1:
	// the S·D term of Eq. 1 at work).
	DistanceGrowth float64
}

// Eq1 extracts the Pelgrom area law on the 90 nm node.
func Eq1(nPairs int, seed uint64) (*Eq1Result, string) {
	tech := device.MustTech("90nm")
	res := &Eq1Result{}
	rng := mathx.NewRNG(seed)
	geoms := []struct{ w, l float64 }{
		{0.5e-6, 0.1e-6}, {1e-6, 0.2e-6}, {2e-6, 0.5e-6}, {4e-6, 1e-6}, {8e-6, 2e-6},
	}
	for _, g := range geoms {
		var run mathx.Running
		for i := 0; i < nPairs; i++ {
			run.Add(variation.SamplePairDeltaVT(tech, g.w, g.l, 0, rng))
		}
		res.InvSqrtArea = append(res.InvSqrtArea, 1/math.Sqrt(g.w*g.l))
		res.SigmaVT = append(res.SigmaVT, run.StdDev())
	}
	_, slope, r2 := mathx.LinFit(res.InvSqrtArea, res.SigmaVT)
	res.FitSlopeR2 = r2
	res.FitAVT = slope

	// Distance term: same small geometry, far apart.
	var near, far mathx.Running
	for i := 0; i < nPairs; i++ {
		near.Add(variation.SamplePairDeltaVT(tech, 0.5e-6, 0.1e-6, 0, rng))
		far.Add(variation.SamplePairDeltaVT(tech, 0.5e-6, 0.1e-6, 2e-3, rng))
	}
	res.DistanceGrowth = far.StdDev() / near.StdDev()

	var b strings.Builder
	b.WriteString("Eq. 1 — Pelgrom mismatch law σ²(ΔVT) = AVT²/(WL) + SVT²·D²\n")
	t := report.NewTable("", "1/sqrt(WL) [1/m]", "σ(ΔVT) [V]")
	for i := range res.SigmaVT {
		t.AddRowf(res.InvSqrtArea[i], res.SigmaVT[i])
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "fit: AVT = %.3g V·m (true %.3g), r² = %.5f\n", res.FitAVT, tech.AVT, res.FitSlopeR2)
	fmt.Fprintf(&b, "σ growth at D = 2 mm: ×%.3f\n", res.DistanceGrowth)
	return res, b.String()
}

// Eq2Result verifies the HCI law (Eq. 2).
type Eq2Result struct {
	Times  []float64
	Shifts []float64
	// FittedExponent from the t^n regression.
	FittedExponent float64
	// EmAcceleration is shift(high Em)/shift(low Em) at fixed t.
	EmAcceleration float64
}

// Eq2 sweeps HCI stress time and lateral field.
func Eq2() (*Eq2Result, string) {
	m := aging.DefaultHCI()
	res := &Eq2Result{Times: mathx.Logspace(10, 3e8, 12)}
	for _, t := range res.Times {
		res.Shifts = append(res.Shifts, m.Shift(5e-3, 5e8, 8e7, 330, t, false))
	}
	_, n, _ := mathx.PowerFit(res.Times, res.Shifts)
	res.FittedExponent = n
	res.EmAcceleration = m.Shift(5e-3, 5e8, 9e7, 330, 1e6, false) /
		m.Shift(5e-3, 5e8, 6e7, 330, 1e6, false)

	var b strings.Builder
	b.WriteString("Eq. 2 — HCI: ΔVT ∝ Qi·exp(Eox/E0)·exp(−Φit/λEm)·t^n\n")
	b.WriteString(report.Series("", "t [s]", "ΔVT [V]", res.Times, res.Shifts))
	fmt.Fprintf(&b, "fitted exponent n = %.3f (model %.3f)\n", res.FittedExponent, m.N)
	fmt.Fprintf(&b, "Em acceleration 6→9 MV/m(lateral): ×%.1f\n", res.EmAcceleration)
	return res, b.String()
}

// Eq3Result verifies the NBTI law (Eq. 3) with recovery.
type Eq3Result struct {
	Times  []float64
	Shifts []float64
	// FittedExponent from t^n regression.
	FittedExponent float64
	// TempAcceleration is shift(400K)/shift(300K) at fixed t.
	TempAcceleration float64
	// RelaxTrace is the post-stress relaxation: remaining fraction at
	// ξ = tRelax/tStress in RelaxXi.
	RelaxXi, RelaxTrace []float64
	// ACFraction is ΔVT(50% duty)/ΔVT(DC).
	ACFraction float64
	// MSMDelays and MSMExponents show the measurement artefact the paper
	// warns about: the apparent power-law exponent extracted with
	// different instrument delays.
	MSMDelays, MSMExponents []float64
}

// Eq3 sweeps NBTI stress, temperature, relaxation and duty factor.
func Eq3() (*Eq3Result, string) {
	m := aging.DefaultNBTI()
	const eox, temp = 5e8, 350
	res := &Eq3Result{Times: mathx.Logspace(10, 3e8, 12)}
	for _, t := range res.Times {
		res.Shifts = append(res.Shifts, m.ShiftDC(eox, temp, t))
	}
	_, n, _ := mathx.PowerFit(res.Times, res.Shifts)
	res.FittedExponent = n
	res.TempAcceleration = m.ShiftDC(eox, 400, 1e7) / m.ShiftDC(eox, 300, 1e7)

	const tStress = 1e5
	full := m.ShiftDC(eox, temp, tStress)
	for _, xi := range mathx.Logspace(1e-6, 1e4, 11) {
		res.RelaxXi = append(res.RelaxXi, xi)
		res.RelaxTrace = append(res.RelaxTrace,
			m.ShiftAfterRelax(eox, temp, tStress, xi*tStress)/full)
	}
	res.ACFraction = m.ShiftAC(eox, temp, 1e7, 0.5) / m.ShiftDC(eox, temp, 1e7)

	// Measurement-delay artefact (the paper: relaxation "greatly
	// complicates the evaluation of NBTI").
	res.MSMDelays = []float64{1e-6, 1e-3, 1, 100}
	exps, err := aging.ExponentVsDelay(m, eox, temp, mathx.Logspace(1, 1e6, 12), res.MSMDelays)
	must("MSM sweep", err)
	res.MSMExponents = exps

	var b strings.Builder
	b.WriteString("Eq. 3 — NBTI: ΔVT ∝ exp(Eox/E0)·exp(−Ea/kT)·t^n, with recovery\n")
	b.WriteString(report.Series("stress", "t [s]", "ΔVT [V]", res.Times, res.Shifts))
	fmt.Fprintf(&b, "fitted exponent n = %.3f (model %.3f)\n", res.FittedExponent, m.N)
	fmt.Fprintf(&b, "300→400 K acceleration: ×%.1f\n", res.TempAcceleration)
	b.WriteString(report.Series("relaxation", "ξ = tr/ts", "remaining fraction", res.RelaxXi, res.RelaxTrace))
	fmt.Fprintf(&b, "AC(50%% duty)/DC shift: %.2f\n", res.ACFraction)
	b.WriteString(report.Series("measure-stress-measure artefact",
		"measurement delay [s]", "apparent exponent n", res.MSMDelays, res.MSMExponents))
	return res, b.String()
}

// Eq4Result verifies Black's law (Eq. 4).
type Eq4Result struct {
	J    []float64
	MTTF []float64
	// FittedExponent of MTTF ∝ J^-n.
	FittedExponent float64
	// TempRatio is MTTF(350K)/MTTF(400K).
	TempRatio float64
	// BlechImmortal reports whether the short-wire check returned +Inf.
	BlechImmortal bool
}

// Eq4 sweeps current density and temperature on a reference wire.
func Eq4() (*Eq4Result, string) {
	m := em.DefaultBlack()
	res := &Eq4Result{}
	w := &em.Wire{Name: "ref", Width: 0.5e-6, Thickness: 0.2e-6, Length: 1e-2}
	for _, j := range mathx.Logspace(1e9, 2e10, 10) {
		w.Current = j * w.Area()
		res.J = append(res.J, j)
		res.MTTF = append(res.MTTF, m.MTTF(w, 378))
	}
	c, n, _ := mathx.PowerFit(res.J, res.MTTF)
	_ = c
	res.FittedExponent = -n
	w.Current = 5e9 * w.Area()
	res.TempRatio = m.MTTF(w, 350) / m.MTTF(w, 400)
	short := &em.Wire{Name: "short", Width: 0.5e-6, Thickness: 0.2e-6, Length: 10e-6, Current: 5e9 * 1e-13}
	res.BlechImmortal = math.IsInf(m.MTTF(short, 378), 1)

	var b strings.Builder
	b.WriteString("Eq. 4 — Electromigration: MTTF = A/J²·exp(Ea/kT), Blech immunity\n")
	b.WriteString(report.Series("", "J [A/m²]", "MTTF [s]", res.J, res.MTTF))
	fmt.Fprintf(&b, "fitted current exponent: %.2f (Black: %g)\n", res.FittedExponent, m.N)
	fmt.Fprintf(&b, "MTTF(350K)/MTTF(400K): ×%.1f\n", res.TempRatio)
	fmt.Fprintf(&b, "10 µm wire Blech-immortal: %v\n", res.BlechImmortal)
	return res, b.String()
}
