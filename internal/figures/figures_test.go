package figures

import (
	"math"
	"strings"
	"testing"
)

func TestFig1TrendShape(t *testing.T) {
	res, txt := Fig1(20000, 1)
	if !strings.Contains(txt, "Fig. 1") {
		t.Error("missing title")
	}
	if res.MaxRelErrAbove10nm > 0.05 {
		t.Errorf("benchmark deviates %.1f%% above 10 nm, should hold", 100*res.MaxRelErrAbove10nm)
	}
	if res.MinRatioBelow10nm < 1.05 {
		t.Errorf("below 10 nm extracted AVT should sit above the benchmark (ratio %.3f)", res.MinRatioBelow10nm)
	}
	// X axis must be decreasing Tox (scaling direction).
	for i := 1; i < len(res.ToxNM); i++ {
		if res.ToxNM[i] >= res.ToxNM[i-1] {
			t.Fatal("Tox axis not sorted")
		}
	}
}

func TestFig2DegradedBelowFresh(t *testing.T) {
	res, txt := Fig2()
	if !strings.Contains(txt, "saturation current drop") {
		t.Error("missing summary line")
	}
	if res.SatCurrentDropPct < 2 || res.SatCurrentDropPct > 60 {
		t.Errorf("saturation current drop %.1f%% outside plausible band", res.SatCurrentDropPct)
	}
	// Degraded curve below fresh at every nonzero bias of the top step.
	last := len(res.VGSSteps) - 1
	for i := range res.VDS {
		if res.VDS[i] == 0 {
			continue
		}
		if res.Aged[last][i] >= res.Fresh[last][i] {
			t.Fatalf("aged current above fresh at VDS=%g", res.VDS[i])
		}
	}
}

func TestFig3BiasPoint(t *testing.T) {
	res, txt := Fig3()
	if res.IOutQuiet <= 1e-6 || res.IOutQuiet >= 1e-3 {
		t.Errorf("quiet output current %g implausible", res.IOutQuiet)
	}
	if res.VGate <= 0.3 || res.VGate >= 1.2 {
		t.Errorf("gate bias %g implausible", res.VGate)
	}
	if !strings.Contains(txt, "IOUT") {
		t.Error("missing table")
	}
}

func TestFig4SmallGrid(t *testing.T) {
	res, txt := Fig4([]float64{0.15, 0.4}, []float64{5e6, 200e6})
	if res.WorstShift == 0 {
		t.Fatal("no EMI shift detected")
	}
	if !res.MonotoneInAmplitude {
		t.Error("shift should grow with amplitude at every frequency")
	}
	if res.WorstAmpl != 0.4 {
		t.Errorf("worst shift at %g V, expected the largest amplitude", res.WorstAmpl)
	}
	if !strings.Contains(txt, "worst shift") {
		t.Error("missing summary")
	}
}

func TestFig5AreaRatio(t *testing.T) {
	res, txt := Fig5(40, 3)
	if res.Study.AnalogAreaRatio <= 0.005 || res.Study.AnalogAreaRatio > 0.3 {
		t.Errorf("area ratio %.3f outside plausible band around the paper's 6%%", res.Study.AnalogAreaRatio)
	}
	if res.ExampleINLAfter >= res.ExampleINLBefore {
		t.Error("SSPA did not improve the example instance")
	}
	if res.YieldCalibrated.Yield <= res.YieldIntrinsic.Yield {
		t.Error("calibration should raise yield at the calibrated design sigma")
	}
	if !strings.Contains(txt, "area ratio") {
		t.Error("missing summary")
	}
}

func TestFig6AdaptiveWins(t *testing.T) {
	res, txt := Fig6(30, 10)
	if !(res.AdaptiveTTF > res.StaticTTF) {
		t.Errorf("adaptive TTF %g must exceed static %g", res.AdaptiveTTF, res.StaticTTF)
	}
	if len(res.KnobTrace) != len(res.Times) {
		t.Error("knob trace length mismatch")
	}
	moved := false
	for i := 1; i < len(res.KnobTrace); i++ {
		if res.KnobTrace[i] != res.KnobTrace[0] {
			moved = true
		}
	}
	if !moved {
		t.Error("knob never moved")
	}
	if !strings.Contains(txt, "time to failure") {
		t.Error("missing summary")
	}
}

func TestEq1PelgromFit(t *testing.T) {
	res, _ := Eq1(20000, 5)
	if res.FitSlopeR2 < 0.99 {
		t.Errorf("Pelgrom fit r² = %g", res.FitSlopeR2)
	}
	if res.DistanceGrowth <= 1.0 {
		t.Errorf("distance term missing: growth %g", res.DistanceGrowth)
	}
}

func TestEq2Exponent(t *testing.T) {
	res, _ := Eq2()
	if math.Abs(res.FittedExponent-0.45) > 0.01 {
		t.Errorf("HCI exponent %g, want ~0.45", res.FittedExponent)
	}
	if res.EmAcceleration < 10 {
		t.Errorf("lateral-field acceleration ×%g too weak", res.EmAcceleration)
	}
}

func TestEq3ShapeAndRecovery(t *testing.T) {
	res, _ := Eq3()
	if math.Abs(res.FittedExponent-0.2) > 0.01 {
		t.Errorf("NBTI exponent %g, want ~0.2", res.FittedExponent)
	}
	if res.TempAcceleration <= 1 {
		t.Error("temperature acceleration missing")
	}
	// Relaxation trace falls monotonically and stays above the permanent
	// fraction.
	for i := 1; i < len(res.RelaxTrace); i++ {
		if res.RelaxTrace[i] > res.RelaxTrace[i-1]+1e-12 {
			t.Fatal("relaxation not monotone")
		}
	}
	if last := res.RelaxTrace[len(res.RelaxTrace)-1]; last < 0.4 || last > 0.8 {
		t.Errorf("long-relaxation residual %g should approach the permanent fraction", last)
	}
	if res.ACFraction <= 0.2 || res.ACFraction >= 1 {
		t.Errorf("AC/DC fraction %g implausible", res.ACFraction)
	}
}

func TestEq4BlackShape(t *testing.T) {
	res, _ := Eq4()
	if math.Abs(res.FittedExponent-2) > 0.01 {
		t.Errorf("current exponent %g, want 2", res.FittedExponent)
	}
	if res.TempRatio <= 1 {
		t.Error("temperature must shorten lifetime")
	}
	if !res.BlechImmortal {
		t.Error("short wire should be Blech-immortal")
	}
	for i := 1; i < len(res.MTTF); i++ {
		if res.MTTF[i] >= res.MTTF[i-1] {
			t.Fatal("MTTF must fall with J")
		}
	}
}

func TestScalingStudyTrends(t *testing.T) {
	res, txt := ScalingStudy()
	if len(res.Rows) < 8 {
		t.Fatalf("only %d nodes", len(res.Rows))
	}
	first := res.Rows[0]
	last := res.Rows[len(res.Rows)-1]
	if last.SigmaVTMinSize < 3*first.SigmaVTMinSize {
		t.Errorf("min-size mismatch should explode with scaling: %g -> %g",
			first.SigmaVTMinSize, last.SigmaVTMinSize)
	}
	if last.NBTIShift10y <= first.NBTIShift10y {
		t.Errorf("NBTI should worsen with scaling: %g -> %g",
			first.NBTIShift10y, last.NBTIShift10y)
	}
	if last.RelNBTIBudget < 2*first.RelNBTIBudget {
		t.Errorf("NBTI headroom share should grow with scaling: %g -> %g",
			first.RelNBTIBudget, last.RelNBTIBudget)
	}
	if last.TDDBEtaUseYears >= first.TDDBEtaUseYears {
		t.Errorf("oxide lifetime should shrink with scaling: %g -> %g yr",
			first.TDDBEtaUseYears, last.TDDBEtaUseYears)
	}
	if !strings.Contains(txt, "Scaling study") {
		t.Error("missing title")
	}
}

func TestAblateMCSamplesCIShrinks(t *testing.T) {
	a, _ := AblateMCSamples()
	for i := 1; i < len(a.Values); i++ {
		if a.Values[i] >= a.Values[i-1] {
			t.Errorf("CI width %.3g%% at %s dies not below %.3g%% at %s", a.Values[i], a.Arms[i], a.Values[i-1], a.Arms[i-1])
		}
	}
}

func TestAblateSSPABeatsThermometer(t *testing.T) {
	a, _ := AblateSSPA() // thermometer, random, SSPA
	if a.Values[2] >= a.Values[0] || a.Values[2] >= a.Values[1] {
		t.Errorf("SSPA mean INL %.3g LSB not below thermometer %.3g and random %.3g", a.Values[2], a.Values[0], a.Values[1])
	}
}

func TestAblateControllerGreedyCheaper(t *testing.T) {
	a, _ := AblateController() // exhaustive, greedy
	for i, ok := range a.InSpec {
		if !ok {
			t.Errorf("%s controller failed to reach spec", a.Arms[i])
		}
	}
	if a.Values[1] >= a.Values[0] {
		t.Errorf("greedy spent %g evaluations, exhaustive %g", a.Values[1], a.Values[0])
	}
}

func TestAblateAdaptiveStepFewerPoints(t *testing.T) {
	a, _ := AblateAdaptiveStep() // fixed, adaptive
	if a.Values[1] >= a.Values[0] {
		t.Errorf("adaptive stepping took %g points, fixed %g", a.Values[1], a.Values[0])
	}
}

func TestAblateIntegratorTrapezoidalMoreAccurate(t *testing.T) {
	a, _ := AblateIntegrator() // backward Euler, trapezoidal
	if a.Values[1] >= a.Values[0] {
		t.Errorf("trapezoidal error %.3g nA not below Backward-Euler %.3g nA", a.Values[1], a.Values[0])
	}
}

func TestSRAMStabilityFallsWithScaling(t *testing.T) {
	res, _ := SRAMStability() // 90nm, 32nm
	if res.Yield[1].Yield >= res.Yield[0].Yield {
		t.Errorf("32nm yield %v not below 90nm %v", res.Yield[1], res.Yield[0])
	}
	if res.NominalSNM[1] >= res.NominalSNM[0] {
		t.Errorf("32nm nominal SNM %g not below 90nm %g", res.NominalSNM[1], res.NominalSNM[0])
	}
	if res.NBTICost <= 0 {
		t.Errorf("NBTI asymmetry cost %g V of margin, want a loss", res.NBTICost)
	}
}
