package repro

// The benchmark harness regenerates every evaluation artefact of the paper
// (Figures 1-6, Equations 1-4) and the ablation studies listed in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Each bench prints its figure's series once per process and reports the
// headline number through b.ReportMetric, so both the shape (printed) and
// the key quantity (metric) land in bench_output.txt.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/adapt"
	"repro/internal/aging"
	"repro/internal/calib"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/emc"
	"repro/internal/figures"
	"repro/internal/mathx"
	"repro/internal/sram"
	"repro/internal/variation"
)

var printOnce sync.Map

// printFigure emits a figure's text once per process.
func printFigure(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(text)
	}
}

func BenchmarkFig1MismatchTrend(b *testing.B) {
	var last *figures.Fig1Result
	for i := 0; i < b.N; i++ {
		res, txt := figures.Fig1(5000, 1)
		printFigure("fig1", txt)
		last = res
	}
	b.ReportMetric(last.MaxRelErrAbove10nm*100, "%benchErr>=10nm")
	b.ReportMetric(last.MinRatioBelow10nm, "ratio<10nm")
}

func BenchmarkFig2DegradedIV(b *testing.B) {
	var last *figures.Fig2Result
	for i := 0; i < b.N; i++ {
		res, txt := figures.Fig2()
		printFigure("fig2", txt)
		last = res
	}
	b.ReportMetric(last.SatCurrentDropPct, "%Idsat_drop")
}

func BenchmarkFig3CurrentReference(b *testing.B) {
	var last *figures.Fig3Result
	for i := 0; i < b.N; i++ {
		res, txt := figures.Fig3()
		printFigure("fig3", txt)
		last = res
	}
	b.ReportMetric(last.IOutQuiet*1e6, "uA_quiet")
}

func BenchmarkFig4EMIShift(b *testing.B) {
	var last *figures.Fig4Result
	for i := 0; i < b.N; i++ {
		res, txt := figures.Fig4Default()
		printFigure("fig4", txt)
		last = res
	}
	b.ReportMetric(100*math.Abs(last.WorstShift/last.Sweep.Baseline), "%worst_shift")
}

func BenchmarkFig5DACCalibration(b *testing.B) {
	var last *figures.Fig5Result
	for i := 0; i < b.N; i++ {
		res, txt := figures.Fig5(40, 3)
		printFigure("fig5", txt)
		last = res
	}
	b.ReportMetric(100*last.Study.AnalogAreaRatio, "%area_ratio")
}

func BenchmarkFig6KnobsMonitors(b *testing.B) {
	var last *figures.Fig6Result
	for i := 0; i < b.N; i++ {
		res, txt := figures.Fig6(30, 10)
		printFigure("fig6", txt)
		last = res
	}
	b.ReportMetric(last.AdaptiveTTF/figures.Year, "yr_adaptiveTTF")
	b.ReportMetric(last.StaticTTF/figures.Year, "yr_staticTTF")
}

func BenchmarkEq1Pelgrom(b *testing.B) {
	var last *figures.Eq1Result
	for i := 0; i < b.N; i++ {
		res, txt := figures.Eq1(5000, 5)
		printFigure("eq1", txt)
		last = res
	}
	b.ReportMetric(last.FitSlopeR2, "r2")
}

func BenchmarkEq2HCI(b *testing.B) {
	var last *figures.Eq2Result
	for i := 0; i < b.N; i++ {
		res, txt := figures.Eq2()
		printFigure("eq2", txt)
		last = res
	}
	b.ReportMetric(last.FittedExponent, "n")
}

func BenchmarkEq3NBTI(b *testing.B) {
	var last *figures.Eq3Result
	for i := 0; i < b.N; i++ {
		res, txt := figures.Eq3()
		printFigure("eq3", txt)
		last = res
	}
	b.ReportMetric(last.FittedExponent, "n")
	b.ReportMetric(last.ACFraction, "AC/DC")
}

func BenchmarkEq4Electromigration(b *testing.B) {
	var last *figures.Eq4Result
	for i := 0; i < b.N; i++ {
		res, txt := figures.Eq4()
		printFigure("eq4", txt)
		last = res
	}
	b.ReportMetric(last.FittedExponent, "J_exp")
}

// BenchmarkImmunityCurve runs the IEC-style immunity search on the Fig. 3
// reference: the lowest EMI amplitude producing a 0.5 µA output shift, per
// frequency. Capacitive gate coupling makes immunity fall with frequency.
func BenchmarkImmunityCurve(b *testing.B) {
	var last *figures.ImmunityResult
	for i := 0; i < b.N; i++ {
		res, txt := figures.Immunity()
		printFigure("immunity", txt)
		last = res
	}
	b.ReportMetric(last.Thresholds[len(last.Thresholds)-1], "V_thresh_100MHz")
}

// BenchmarkScalingStudy regenerates the cross-node summary that condenses
// the paper's thesis: mismatch, NBTI and oxide lifetime all worsen as CMOS
// scales.
func BenchmarkScalingStudy(b *testing.B) {
	var last *figures.ScalingStudyResult
	for i := 0; i < b.N; i++ {
		res, txt := figures.ScalingStudy()
		printFigure("scaling", txt)
		last = res
	}
	first := last.Rows[0]
	final := last.Rows[len(last.Rows)-1]
	b.ReportMetric(final.SigmaVTMinSize/first.SigmaVTMinSize, "x_mismatch_growth")
	b.ReportMetric(final.RelNBTIBudget*100, "%VT_budget_NBTI_32nm")
}

// BenchmarkRingDegradation measures the digital delay degradation the
// paper's §2-3 describe ("slower circuits"): a 65 nm ring oscillator's
// frequency before and after a 10-year 400 K mission.
func BenchmarkRingDegradation(b *testing.B) {
	var last *figures.RingResult
	for i := 0; i < b.N; i++ {
		res, txt := figures.Ring()
		printFigure("ring", txt)
		last = res
	}
	b.ReportMetric(last.SlowdownPct, "%slowdown_10yr")
}

// --------------------------------------------------------------- ablations

// BenchmarkAblationMCSamples measures how the yield-estimate confidence
// interval narrows with Monte-Carlo sample count.
func BenchmarkAblationMCSamples(b *testing.B) {
	tech := device.MustTech("65nm")
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var ciWidth float64
			for i := 0; i < b.N; i++ {
				camp := variation.Campaign{
					Trials: n,
					Seed:   7,
					Spec:   &variation.Spec{Lo: -0.01, Hi: 0.01},
					Trial: func(rng *mathx.RNG, _ int) (float64, error) {
						return variation.SamplePairDeltaVT(tech, 1e-6, 65e-9, 0, rng), nil
					},
				}
				res, err := camp.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				y := res.Stats.Yield()
				ciWidth = y.Hi95 - y.Lo95
			}
			b.ReportMetric(ciWidth*100, "%CI_width")
		})
	}
}

// BenchmarkAblationAgingSteps compares log-spaced vs linear aging
// checkpoints against a dense reference. The vehicle is a diode-connected
// PMOS whose gate bias shifts as it degrades, so the stress itself is
// state-dependent and the checkpoint spacing genuinely matters (with
// constant stress the equivalent-time integration is exact for any step).
func BenchmarkAblationAgingSteps(b *testing.B) {
	tech := device.MustTech("65nm")
	build := func() *circuit.Circuit {
		c := circuit.New()
		c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
		c.AddMOSFET("M1", "d", "d", "vdd", "vdd",
			device.NewMosfet(tech.PMOSParams(4e-6, 2*tech.Lmin, 300)))
		c.AddResistor("RD", "d", "0", 20e3)
		return c
	}
	const mission = 10 * figures.Year
	run := func(checkpoints []float64) float64 {
		c := build()
		ager := aging.NewCircuitAger(c, aging.Models{NBTI: aging.DefaultNBTI()}, 400, 3)
		traj, err := ager.AgeToCtx(context.Background(), checkpoints)
		if err != nil {
			b.Fatal(err)
		}
		return traj[len(traj)-1].Solution.Voltage("d")
	}
	ref := run(aging.LogCheckpoints(10, mission, 200))
	for _, mode := range []string{"log8", "lin8"} {
		b.Run(mode, func(b *testing.B) {
			var errV float64
			for i := 0; i < b.N; i++ {
				var cps []float64
				if mode == "log8" {
					cps = aging.LogCheckpoints(10, mission, 8)
				} else {
					cps = aging.LinCheckpoints(mission, 8)
				}
				errV = math.Abs(run(cps) - ref)
			}
			b.ReportMetric(errV*1e3, "mV_err_vs_dense")
		})
	}
}

// BenchmarkAblationSSPA compares switching sequences: thermometer, random
// and SSPA.
func BenchmarkAblationSSPA(b *testing.B) {
	cfg := calib.Paper14Bit(0.01)
	for _, mode := range []string{"thermometer", "random", "sspa"} {
		b.Run(mode, func(b *testing.B) {
			var meanINL float64
			for i := 0; i < b.N; i++ {
				var sum float64
				const n = 10
				for seed := uint64(0); seed < n; seed++ {
					d, err := calib.NewDAC(cfg, mathx.NewRNG(seed))
					if err != nil {
						b.Fatal(err)
					}
					switch mode {
					case "random":
						perm := mathx.NewRNG(seed + 500).Perm(63)
						if err := d.SetSequence(perm); err != nil {
							b.Fatal(err)
						}
					case "sspa":
						d.CalibrateSSPA(0, mathx.NewRNG(seed+500))
					}
					sum += d.MaxINL()
				}
				meanINL = sum / n
			}
			b.ReportMetric(meanINL, "LSB_meanINL")
		})
	}
}

// BenchmarkAblationController compares greedy vs exhaustive knob search on
// a two-knob amplifier.
func BenchmarkAblationController(b *testing.B) {
	tech := device.MustTech("90nm")
	for _, policy := range []adapt.Policy{adapt.Exhaustive, adapt.Greedy} {
		b.Run(policy.String(), func(b *testing.B) {
			var evals int
			var inSpec bool
			for i := 0; i < b.N; i++ {
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
				if err != nil {
					b.Fatal(err)
				}
				tr, err := ctrl.Tune(c)
				if err != nil {
					b.Fatal(err)
				}
				evals = tr.Evaluations
				inSpec = tr.InSpec
			}
			if !inSpec {
				b.Fatal("controller failed to reach spec")
			}
			b.ReportMetric(float64(evals), "evaluations")
		})
	}
}

// BenchmarkAblationSampling compares plain Monte-Carlo sampling with
// Latin-hypercube stratification on the DAC INL statistic: same batch
// size, lower estimator scatter for LHS.
func BenchmarkAblationSampling(b *testing.B) {
	cfg := calib.Paper14Bit(0.01)
	const nUnary, nBin = 63, 8
	const batch, reps = 20, 12
	batchMean := func(mk func(batchSeed uint64) *calib.DAC, seed uint64) float64 {
		total := 0.0
		for i := 0; i < batch; i++ {
			total += mk(seed*1000 + uint64(i)).MaxINL()
		}
		return total / batch
	}
	run := func(lhs bool) float64 {
		var means mathx.Running
		for r := uint64(0); r < reps; r++ {
			if lhs {
				rows := variation.LHSNormals(batch, nUnary+nBin, 500+r)
				total := 0.0
				for _, row := range rows {
					d, err := calib.NewDACFromErrors(cfg, row[:nUnary], row[nUnary:])
					if err != nil {
						b.Fatal(err)
					}
					total += d.MaxINL()
				}
				means.Add(total / batch)
			} else {
				means.Add(batchMean(func(s uint64) *calib.DAC {
					d, err := calib.NewDAC(cfg, mathx.NewRNG(s))
					if err != nil {
						b.Fatal(err)
					}
					return d
				}, r+1))
			}
		}
		return means.StdDev()
	}
	for _, mode := range []string{"mc", "lhs"} {
		b.Run(mode, func(b *testing.B) {
			var scatter float64
			for i := 0; i < b.N; i++ {
				scatter = run(mode == "lhs")
			}
			b.ReportMetric(scatter*1e3, "mLSB_batch_scatter")
		})
	}
}

// BenchmarkAblationAdaptiveStep compares fixed-step and LTE-controlled
// variable-step transient on an RC edge: equal accuracy budgets, very
// different point counts.
func BenchmarkAblationAdaptiveStep(b *testing.B) {
	build := func() *circuit.Circuit {
		c := circuit.New()
		c.AddVSource("V1", "in", "0", circuit.Pulse{Low: 0, High: 5, Rise: 1e-9, Width: 1, Period: 2})
		c.AddResistor("R1", "in", "out", 1e3)
		c.AddCapacitor("C1", "out", "0", 1e-6)
		return c
	}
	b.Run("fixed", func(b *testing.B) {
		var points int
		for i := 0; i < b.N; i++ {
			wf, err := build().Transient(circuit.TranSpec{
				Stop: 5e-3, Step: 2e-6, Integrator: circuit.Trapezoidal, Record: []string{"out"},
			})
			if err != nil {
				b.Fatal(err)
			}
			points = len(wf.Times)
		}
		b.ReportMetric(float64(points), "points")
	})
	b.Run("adaptive", func(b *testing.B) {
		var points int
		for i := 0; i < b.N; i++ {
			wf, err := build().TransientAdaptive(circuit.AdaptiveSpec{
				Stop: 5e-3, MinStep: 1e-8, MaxStep: 2e-4, LTETol: 2e-3,
				Integrator: circuit.Trapezoidal, Record: []string{"out"},
			})
			if err != nil {
				b.Fatal(err)
			}
			points = len(wf.Times)
		}
		b.ReportMetric(float64(points), "points")
	})
}

// BenchmarkAblationIntegrator compares Backward-Euler vs trapezoidal
// integration accuracy on the EMI rectification testbench, against a
// fine-step trapezoidal reference.
func BenchmarkAblationIntegrator(b *testing.B) {
	tech := device.MustTech("180nm")
	measure := func(intg circuit.Integrator, stepsPerCycle int) float64 {
		cr := emc.BuildCurrentReference(tech, true)
		opts := emc.DefaultOptions(cr.RecordNodes()...)
		opts.Integrator = intg
		opts.StepsPerCycle = stepsPerCycle
		r, err := emc.MeasureRectification(cr.Circuit, cr.InjectName,
			emc.Injection{Ampl: 0.4, Freq: 10e6}, cr.OutputCurrentMetric(), opts)
		if err != nil {
			b.Fatal(err)
		}
		return r.Shift
	}
	ref := measure(circuit.Trapezoidal, 512)
	for _, intg := range []circuit.Integrator{circuit.BackwardEuler, circuit.Trapezoidal} {
		b.Run(intg.String(), func(b *testing.B) {
			var errA float64
			for i := 0; i < b.N; i++ {
				errA = math.Abs(measure(intg, 48) - ref)
			}
			b.ReportMetric(errA*1e9, "nA_err_vs_fine")
		})
	}
}

// BenchmarkSRAMStability measures the 6T read-SNM yield collapse with
// scaling — the cell-level condensation of §2's variability threat.
func BenchmarkSRAMStability(b *testing.B) {
	for _, node := range []string{"90nm", "32nm"} {
		b.Run(node, func(b *testing.B) {
			cfg := sram.DefaultCell(device.MustTech(node))
			var y float64
			for i := 0; i < b.N; i++ {
				est, err := sram.StabilityYield(cfg, 0.1, 100, 31, 11)
				if err != nil {
					b.Fatal(err)
				}
				y = est.Yield
			}
			b.ReportMetric(100*y, "%yield_SNM>100mV")
		})
	}
}
