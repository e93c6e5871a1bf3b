package figures

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/adapt"
	"repro/internal/aging"
	"repro/internal/calib"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
	"repro/internal/report"
	"repro/internal/variation"
)

// Fig5Result is the SSPA calibration study behind Fig. 5.
type Fig5Result struct {
	// Study carries the sigma and area-ratio numbers.
	Study *calib.AreaStudy
	// ExampleINLBefore/After demonstrate one instance.
	ExampleINLBefore, ExampleINLAfter float64
	// YieldIntrinsic / YieldCalibrated at the calibrated-design sigma.
	YieldIntrinsic, YieldCalibrated variation.YieldEstimate
	// PaperAreaRatio is the 6 % claim for reference.
	PaperAreaRatio float64
}

// Fig5 runs the DAC area study: the analog area a calibrated 14-bit DAC
// needs relative to an intrinsically accurate one, at equal INL < 0.5 LSB
// yield.
func Fig5(nMC int, seed uint64) (*Fig5Result, string) {
	cfg := calib.Paper14Bit(0)
	study, err := calib.RunAreaStudy(cfg, 0.5, 0.9, nMC, seed)
	must("Fig5 area study", err)
	res := &Fig5Result{Study: study, PaperAreaRatio: 0.06}

	// One demonstration instance at the calibrated design point.
	d, err := calib.NewDAC(calib.Paper14Bit(study.SigmaCalibrated), mathx.NewRNG(seed))
	must("Fig5 example DAC", err)
	res.ExampleINLBefore = d.MaxINL()
	d.CalibrateSSPA(0, mathx.NewRNG(seed+1))
	res.ExampleINLAfter = d.MaxINL()

	resY, err := calib.INLYield(calib.Paper14Bit(study.SigmaCalibrated), 0.5, false, nMC, seed+2)
	must("Fig5 intrinsic yield", err)
	res.YieldIntrinsic = resY
	resC, err := calib.INLYield(calib.Paper14Bit(study.SigmaCalibrated), 0.5, true, nMC, seed+2)
	must("Fig5 calibrated yield", err)
	res.YieldCalibrated = resC

	var b strings.Builder
	b.WriteString("Fig. 5 — SSPA-calibrated 14-bit current-steering DAC vs intrinsic accuracy\n")
	t := report.NewTable("", "quantity", "value")
	t.AddRow("σ_unit intrinsic design", fmt.Sprintf("%.4f%%", 100*study.SigmaIntrinsic))
	t.AddRow("σ_unit calibrated design", fmt.Sprintf("%.4f%%", 100*study.SigmaCalibrated))
	t.AddRow("analog area ratio (cal/intr)", fmt.Sprintf("%.1f%%", 100*study.AnalogAreaRatio))
	t.AddRow("paper claim", "~6%")
	t.AddRow("example INL before SSPA", fmt.Sprintf("%.3f LSB", res.ExampleINLBefore))
	t.AddRow("example INL after SSPA", fmt.Sprintf("%.3f LSB", res.ExampleINLAfter))
	t.AddRow("yield at cal. σ, no SSPA", res.YieldIntrinsic.String())
	t.AddRow("yield at cal. σ, with SSPA", res.YieldCalibrated.String())
	b.WriteString(t.String())
	return res, b.String()
}

// Fig6Result is the knobs-and-monitors lifetime comparison.
type Fig6Result struct {
	// StaticTTF and AdaptiveTTF are times to first spec violation in
	// seconds (+Inf when the mission is survived).
	StaticTTF, AdaptiveTTF float64
	// KnobTrace is the adaptive bias level per checkpoint.
	KnobTrace []float64
	// Times are the checkpoints.
	Times []float64
	// GainStatic / GainAdaptive are the monitored gains per checkpoint.
	GainStatic, GainAdaptive []float64
}

// Fig6 runs the adaptive vs static amplifier mission of Fig. 6: a PMOS
// common-source stage whose gain degrades under NBTI, monitored by a gain
// sensor with a bias knob.
func Fig6(missionYears float64, checkpoints int) (*Fig6Result, string) {
	tech := device.MustTech("65nm")
	times := mathx.Logspace(1e5, missionYears*Year, checkpoints)
	gainSpec := variation.Spec{Name: "gain", Lo: 5.0, Hi: math.Inf(1)}

	build := func() (*circuit.Circuit, *adapt.Knob, adapt.Monitor) {
		c := circuit.New()
		c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
		vg := c.AddVSource("VG", "g", "0", circuit.DC(tech.VDD-0.45))
		vg.ACMag = 1
		c.AddResistor("RD", "d", "0", 20e3)
		m := device.NewMosfet(tech.PMOSParams(4e-6, 2*tech.Lmin, 300))
		c.AddMOSFET("M1", "d", "g", "vdd", "vdd", m)
		knob := adapt.VSourceKnob("vbias", vg, mathx.Linspace(tech.VDD-0.44, 0.2, 10))
		return c, knob, adapt.ACGainMonitor("gain", "d", 1e3)
	}

	run := func(adaptive bool) *adapt.MissionResult {
		c, knob, gain := build()
		ctrl, err := adapt.NewController([]*adapt.Knob{knob}, []adapt.Monitor{gain},
			[]variation.Spec{gainSpec}, adapt.Exhaustive)
		must("Fig6 controller", err)
		_, err = ctrl.Tune(c)
		must("Fig6 initial tune", err)
		ager := aging.NewCircuitAger(c,
			aging.Models{NBTI: aging.DefaultNBTI(), HCI: aging.DefaultHCI()}, 400, 99)
		res, err := adapt.RunMission(ager, ctrl, times, adaptive)
		must("Fig6 mission", err)
		return res
	}

	static := run(false)
	adaptiveRes := run(true)
	res := &Fig6Result{
		StaticTTF:   static.TimeToFailure(),
		AdaptiveTTF: adaptiveRes.TimeToFailure(),
	}
	for i, p := range adaptiveRes.Points {
		res.Times = append(res.Times, p.Time)
		if len(p.Values) > 0 {
			res.GainAdaptive = append(res.GainAdaptive, p.Values[0])
		} else {
			res.GainAdaptive = append(res.GainAdaptive, math.NaN())
		}
		if len(p.KnobIndices) > 0 {
			res.KnobTrace = append(res.KnobTrace, float64(p.KnobIndices[0]))
		}
		if len(static.Points) > i && len(static.Points[i].Values) > 0 {
			res.GainStatic = append(res.GainStatic, static.Points[i].Values[0])
		} else {
			res.GainStatic = append(res.GainStatic, math.NaN())
		}
	}

	var b strings.Builder
	b.WriteString("Fig. 6 — knobs & monitors: adaptive vs static amplifier over life\n")
	t := report.NewTable("", "t", "gain static", "gain adaptive", "knob idx")
	for i := range res.Times {
		t.AddRow(report.Years(res.Times[i]),
			fmt.Sprintf("%.2f", res.GainStatic[i]),
			fmt.Sprintf("%.2f", res.GainAdaptive[i]),
			fmt.Sprintf("%.0f", res.KnobTrace[i]))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "time to failure: static %s, adaptive %s\n",
		report.Years(res.StaticTTF), report.Years(res.AdaptiveTTF))
	return res, b.String()
}
