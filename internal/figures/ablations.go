package figures

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/adapt"
	"repro/internal/aging"
	"repro/internal/calib"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/emc"
	"repro/internal/mathx"
	"repro/internal/report"
	"repro/internal/sram"
	"repro/internal/variation"
)

// Ablation is one design choice from DESIGN.md measured under each of
// its alternatives: Values[i] is the study's metric under Arms[i].
type Ablation struct {
	Arms   []string
	Values []float64
}

func (a *Ablation) add(arm string, v float64) {
	a.Arms = append(a.Arms, arm)
	a.Values = append(a.Values, v)
}

// table renders the ablation under title, one row per arm.
func (a *Ablation) table(title, armHeader, metricHeader string) string {
	t := report.NewTable(title, armHeader, metricHeader)
	for i, arm := range a.Arms {
		t.AddRowf(arm, a.Values[i])
	}
	return t.String()
}

// AblateMCSamples measures how the 95 % confidence interval of a yield
// estimate narrows with the Monte-Carlo sample count.
func AblateMCSamples() (*Ablation, string) {
	tech := device.MustTech("65nm")
	a := &Ablation{}
	for _, n := range []int{100, 400, 1600} {
		camp := variation.Campaign{
			Trials: n,
			Seed:   7,
			Spec:   &variation.Spec{Lo: -0.01, Hi: 0.01},
			Trial: func(rng *mathx.RNG, _ int) (float64, error) {
				return variation.SamplePairDeltaVT(tech, 1e-6, 65e-9, 0, rng), nil
			},
		}
		res, err := camp.Run(context.Background())
		must("MC-samples ablation", err)
		y := res.Stats.Yield()
		a.add(fmt.Sprint(n), 100*(y.Hi95-y.Lo95))
	}
	return a, a.table("Ablation — MC sample count: 95% CI width of a yield estimate (65nm pair, |ΔVT| < 10 mV)",
		"dies", "CI width [%]")
}

// AblateAgingSteps compares 8 log-spaced with 8 linear aging checkpoints
// against a 200-point dense reference. The vehicle is a diode-connected
// PMOS whose gate bias shifts as it degrades, so the stress itself is
// state-dependent and the checkpoint spacing matters (with constant
// stress the equivalent-time integration is exact for any step).
func AblateAgingSteps() (*Ablation, string) {
	tech := device.MustTech("65nm")
	const mission = 10 * Year
	run := func(checkpoints []float64) float64 {
		c := circuit.New()
		c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
		c.AddMOSFET("M1", "d", "d", "vdd", "vdd",
			device.NewMosfet(tech.PMOSParams(4e-6, 2*tech.Lmin, 300)))
		c.AddResistor("RD", "d", "0", 20e3)
		ager := aging.NewCircuitAger(c, aging.Models{NBTI: aging.DefaultNBTI()}, 400, 3)
		traj, err := ager.AgeToCtx(context.Background(), checkpoints)
		must("aging-steps ablation", err)
		return traj[len(traj)-1].Solution.Voltage("d")
	}
	ref := run(aging.LogCheckpoints(10, mission, 200))
	a := &Ablation{}
	a.add("log", 1e3*math.Abs(run(aging.LogCheckpoints(10, mission, 8))-ref))
	a.add("linear", 1e3*math.Abs(run(aging.LinCheckpoints(mission, 8))-ref))
	return a, a.table("Ablation — aging checkpoints: 8 points vs a 200-point dense reference (self-biased 65nm PMOS, 10y/400K)",
		"spacing", "error [mV]")
}

// AblateSSPA compares DAC switching sequences — thermometer (as drawn),
// random and SSPA — by the mean worst INL over 10 dies.
func AblateSSPA() (*Ablation, string) {
	cfg := calib.Paper14Bit(0.01)
	const dies = 10
	a := &Ablation{}
	for _, mode := range []string{"thermometer", "random", "SSPA"} {
		var sum float64
		for seed := uint64(0); seed < dies; seed++ {
			d, err := calib.NewDAC(cfg, mathx.NewRNG(seed))
			must("SSPA ablation", err)
			switch mode {
			case "random":
				must("SSPA ablation", d.SetSequence(mathx.NewRNG(seed+500).Perm(63)))
			case "SSPA":
				d.CalibrateSSPA(0, mathx.NewRNG(seed+500))
			}
			sum += d.MaxINL()
		}
		a.add(mode, sum/dies)
	}
	return a, a.table("Ablation — DAC switching sequence: mean worst INL over 10 dies (14-bit, σ_unit 1%)",
		"sequence", "mean worst INL [LSB]")
}

// ControllerAblation is the knob-search policy study: monitor
// evaluations per policy, plus whether each reached the gain spec.
type ControllerAblation struct {
	Ablation
	InSpec []bool
}

// AblateController compares exhaustive and greedy knob search on a
// two-knob (bias plus a dummy) amplifier that must reach a gain of 4.
func AblateController() (*ControllerAblation, string) {
	tech := device.MustTech("90nm")
	a := &ControllerAblation{}
	t := report.NewTable("Ablation — knob-search policy on a two-knob amplifier (gain ≥ 4)",
		"policy", "evaluations", "in spec", "gain")
	for _, policy := range []adapt.Policy{adapt.Exhaustive, adapt.Greedy} {
		c := circuit.New()
		c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
		vg := c.AddVSource("VG", "g", "0", circuit.DC(tech.VDD-0.45))
		vg.ACMag = 1
		c.AddResistor("RD", "d", "0", 20e3)
		c.AddMOSFET("M1", "d", "g", "vdd", "vdd",
			device.NewMosfet(tech.PMOSParams(4e-6, 2*tech.Lmin, 300)))
		knob := adapt.VSourceKnob("vbias", vg, mathx.Linspace(tech.VDD-0.44, 0.2, 8))
		dummy := adapt.NewKnob("aux", mathx.Linspace(0, 1, 6), func(float64) {})
		ctrl, err := adapt.NewController(
			[]*adapt.Knob{knob, dummy},
			[]adapt.Monitor{adapt.ACGainMonitor("gain", "d", 1e3)},
			[]variation.Spec{{Lo: 4, Hi: math.Inf(1)}},
			policy)
		must("controller ablation", err)
		tr, err := ctrl.Tune(c)
		must("controller ablation", err)
		a.add(policy.String(), float64(tr.Evaluations))
		a.InSpec = append(a.InSpec, tr.InSpec)
		t.AddRowf(policy.String(), tr.Evaluations, tr.InSpec, tr.Values[0])
	}
	return a, t.String()
}

// AblateSampling compares plain Monte-Carlo sampling with Latin-hypercube
// stratification on the DAC's worst-INL statistic: the scatter (σ) of
// 200 batch means of 20 dies each, per scheme. The rep count is fixed so
// that each scatter's relative standard error, about 1/√(2(reps−1)), is
// 5 %; the text prints it beside the two scatters.
func AblateSampling() (*Ablation, string) {
	cfg := calib.Paper14Bit(0.01)
	const nUnary, nBin = 63, 8
	const batch, reps = 20, 200
	scatter := func(lhs bool) float64 {
		var means mathx.Running
		for r := uint64(0); r < reps; r++ {
			total := 0.0
			if lhs {
				for _, row := range variation.LHSNormals(batch, nUnary+nBin, 500+r) {
					d, err := calib.NewDACFromErrors(cfg, row[:nUnary], row[nUnary:])
					must("sampling ablation", err)
					total += d.MaxINL()
				}
			} else {
				for i := uint64(0); i < batch; i++ {
					d, err := calib.NewDAC(cfg, mathx.NewRNG((r+1)*1000+i))
					must("sampling ablation", err)
					total += d.MaxINL()
				}
			}
			means.Add(total / batch)
		}
		return means.StdDev()
	}
	a := &Ablation{}
	a.add("plain MC", 1e3*scatter(false))
	a.add("Latin hypercube", 1e3*scatter(true))
	title := fmt.Sprintf("Ablation — sampling scheme: scatter of %d batch means of the DAC worst INL (%d dies a batch)", reps, batch)
	return a, a.table(title, "scheme", "scatter [mLSB]") +
		fmt.Sprintf("LHS/MC scatter ratio %.2f; each scatter's relative standard error ≈ %.1f%%\n",
			a.Values[1]/a.Values[0], 100/math.Sqrt(2*(reps-1)))
}

// AblateAdaptiveStep compares fixed-step and LTE-controlled variable-step
// transient on an RC edge: equal accuracy budgets, very different point
// counts.
func AblateAdaptiveStep() (*Ablation, string) {
	build := func() *circuit.Circuit {
		c := circuit.New()
		c.AddVSource("V1", "in", "0", circuit.Pulse{Low: 0, High: 5, Rise: 1e-9, Width: 1, Period: 2})
		c.AddResistor("R1", "in", "out", 1e3)
		c.AddCapacitor("C1", "out", "0", 1e-6)
		return c
	}
	fixed, err := build().Transient(circuit.TranSpec{
		Stop: 5e-3, Step: 2e-6, Integrator: circuit.Trapezoidal, Record: []string{"out"},
	})
	must("adaptive-step ablation", err)
	adaptive, err := build().TransientAdaptive(circuit.AdaptiveSpec{
		Stop: 5e-3, MinStep: 1e-8, MaxStep: 2e-4, LTETol: 2e-3,
		Integrator: circuit.Trapezoidal, Record: []string{"out"},
	})
	must("adaptive-step ablation", err)
	a := &Ablation{}
	a.add("fixed", float64(len(fixed.Times)))
	a.add("LTE-adaptive", float64(len(adaptive.Times)))
	return a, a.table("Ablation — transient time stepping on an RC edge (trapezoidal)", "stepping", "points") +
		fmt.Sprintf("adaptive stepping solves ×%.1f fewer points\n", a.Values[0]/a.Values[1])
}

// AblateIntegrator compares Backward-Euler and trapezoidal integration
// on the EMI rectification testbench at 48 steps a cycle, against a
// 512-step trapezoidal reference.
func AblateIntegrator() (*Ablation, string) {
	tech := device.MustTech("180nm")
	measure := func(intg circuit.Integrator, stepsPerCycle int) float64 {
		cr := emc.BuildCurrentReference(tech, true)
		opts := emc.DefaultOptions(cr.RecordNodes()...)
		opts.Integrator = intg
		opts.StepsPerCycle = stepsPerCycle
		r, err := emc.MeasureRectification(cr.Circuit, cr.InjectName,
			emc.Injection{Ampl: 0.4, Freq: 10e6}, cr.OutputCurrentMetric(), opts)
		must("integrator ablation", err)
		return r.Shift
	}
	ref := measure(circuit.Trapezoidal, 512)
	a := &Ablation{}
	for _, intg := range []circuit.Integrator{circuit.BackwardEuler, circuit.Trapezoidal} {
		a.add(intg.String(), 1e9*math.Abs(measure(intg, 48)-ref))
	}
	return a, a.table("Ablation — transient integrator: EMI-shift error at 48 steps a cycle vs a 512-step reference (Fig. 3, 0.4 V at 10 MHz)",
		"integrator", "error [nA]")
}

// SRAMResult is the 6T-cell stability study: read-SNM yield per node at a
// fixed 100 mV limit, and the margin a static NBTI asymmetry costs.
type SRAMResult struct {
	Nodes      []string
	NominalSNM []float64
	Yield      []variation.YieldEstimate
	// NBTICost is the read SNM a 50 mV shift on one 65 nm pull-up costs.
	NBTICost float64
}

// SRAMStability Monte-Carlos 100 mismatched 6T cells per node against a
// 100 mV read-SNM limit — the cell-level condensation of §2's
// variability threat — and ages one pull-up of a 65 nm cell by 50 mV.
func SRAMStability() (*SRAMResult, string) {
	const limit, cells, points = 0.1, 100, 41
	readSNM := func(tech *device.Technology, nbti float64) float64 {
		cell, err := sram.NewCell(sram.DefaultCell(tech))
		must("SRAM cell", err)
		cell.ApplyNBTIAsymmetry(nbti)
		snm, err := cell.ReadSNM(points)
		must("SRAM read SNM", err)
		return snm
	}
	res := &SRAMResult{}
	t := report.NewTable("", "node", "nominal read SNM", "yield [95% CI]")
	for _, node := range []string{"90nm", "32nm"} {
		tech := device.MustTech(node)
		y, err := sram.StabilityYield(sram.DefaultCell(tech), limit, cells, points, 11)
		must("SRAM stability yield", err)
		res.Nodes = append(res.Nodes, node)
		res.NominalSNM = append(res.NominalSNM, readSNM(tech, 0))
		res.Yield = append(res.Yield, y)
		t.AddRow(node, report.SI(res.NominalSNM[len(res.NominalSNM)-1], "V"), y.String())
	}
	tech := device.MustTech("65nm")
	res.NBTICost = readSNM(tech, 0) - readSNM(tech, 0.05)

	var b strings.Builder
	fmt.Fprintf(&b, "SRAM — 6T cell read-SNM stability yield, limit 100 mV (%d mismatched cells a node)\n", cells)
	b.WriteString(t.String())
	fmt.Fprintf(&b, "a 50 mV NBTI shift on one 65nm pull-up costs %s of read SNM\n", report.SI(res.NBTICost, "V"))
	return res, b.String()
}
