package emc

import (
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
)

func TestCurrentReferenceBiasesUp(t *testing.T) {
	tech := device.MustTech("180nm")
	cr := BuildCurrentReference(tech, true)
	sol, err := cr.Circuit.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	iout := (sol.Voltage(cr.RailNode) - sol.Voltage(cr.OutNode)) / cr.RLoad
	if iout < 1e-6 || iout > 1e-3 {
		t.Errorf("reference output current %g A implausible", iout)
	}
	// Mirror: output ~ reference current.
	vg := sol.Voltage("gate")
	if vg < 0.3 || vg > 1.2 {
		t.Errorf("gate bias %g outside expected range", vg)
	}
}

func TestRectificationShiftsOutputCurrent(t *testing.T) {
	tech := device.MustTech("180nm")
	cr := BuildCurrentReference(tech, true)
	res, err := MeasureRectification(cr.Circuit, cr.InjectName,
		Injection{Ampl: 0.5, Freq: 10e6},
		cr.OutputCurrentMetric(),
		DefaultOptions(cr.RecordNodes()...))
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline <= 0 {
		t.Fatalf("baseline current %g must be positive", res.Baseline)
	}
	if rel := res.Shift / res.Baseline; math.Abs(rel) < 0.005 {
		t.Errorf("0.5 V EMI should visibly shift the mean output current, got %g%%", 100*rel)
	}
}

func TestShiftGrowsWithAmplitude(t *testing.T) {
	tech := device.MustTech("180nm")
	cr := BuildCurrentReference(tech, true)
	metric := cr.OutputCurrentMetric()
	opts := DefaultOptions(cr.RecordNodes()...)
	var prev float64
	for i, a := range []float64{0.1, 0.3, 0.6} {
		res, err := MeasureRectification(cr.Circuit, cr.InjectName,
			Injection{Ampl: a, Freq: 10e6}, metric, opts)
		if err != nil {
			t.Fatal(err)
		}
		s := math.Abs(res.Shift)
		if i > 0 && s <= prev {
			t.Errorf("|shift| not growing with amplitude at %g V: %g <= %g", a, s, prev)
		}
		prev = s
	}
}

func TestSourceWaveformRestored(t *testing.T) {
	tech := device.MustTech("180nm")
	cr := BuildCurrentReference(tech, false)
	src, _ := cr.Circuit.VSourceByName(cr.InjectName)
	orig := src.W
	_, err := MeasureRectification(cr.Circuit, cr.InjectName,
		Injection{Ampl: 0.2, Freq: 50e6},
		cr.OutputCurrentMetric(),
		DefaultOptions(cr.RecordNodes()...))
	if err != nil {
		t.Fatal(err)
	}
	if src.W != orig {
		t.Error("EMI measurement leaked the modified waveform")
	}
}

func TestSweepEMIGrid(t *testing.T) {
	tech := device.MustTech("180nm")
	cr := BuildCurrentReference(tech, true)
	opts := DefaultOptions(cr.RecordNodes()...)
	opts.SettleCycles, opts.MeasureCycles, opts.StepsPerCycle = 3, 4, 32
	sw, err := SweepEMI(cr.Circuit, cr.InjectName,
		[]float64{0.2, 0.5},
		[]float64{1e6, 100e6},
		cr.OutputCurrentMetric(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Shift) != 2 || len(sw.Shift[0]) != 2 {
		t.Fatalf("grid shape wrong: %v", sw.Shift)
	}
	worst, wa, _ := sw.WorstShift()
	if worst == 0 {
		t.Error("sweep found no shift at all")
	}
	if wa != 0.5 {
		t.Errorf("worst shift at amplitude %g, expected the largest (0.5)", wa)
	}
}

func TestSweepEMIValidation(t *testing.T) {
	tech := device.MustTech("180nm")
	cr := BuildCurrentReference(tech, false)
	if _, err := SweepEMI(cr.Circuit, cr.InjectName, nil, []float64{1e6},
		cr.OutputCurrentMetric(), DefaultOptions(cr.RecordNodes()...)); err == nil {
		t.Error("empty amplitude grid accepted")
	}
	if _, err := MeasureRectification(cr.Circuit, cr.InjectName,
		Injection{Ampl: 0.1, Freq: 0}, cr.OutputCurrentMetric(),
		DefaultOptions(cr.RecordNodes()...)); err == nil {
		t.Error("zero frequency accepted")
	}
	if _, err := MeasureRectification(cr.Circuit, "NOPE",
		Injection{Ampl: 0.1, Freq: 1e6}, cr.OutputCurrentMetric(),
		DefaultOptions(cr.RecordNodes()...)); err == nil {
		t.Error("unknown source accepted")
	}
}

func TestCrossingTimes(t *testing.T) {
	times := []float64{0, 1, 2, 3, 4}
	values := []float64{0, 1, 0, 1, 0}
	rising := CrossingTimes(times, values, 0.5, true)
	if len(rising) != 2 || !mathx.ApproxEqual(rising[0], 0.5, 1e-12, 0) || !mathx.ApproxEqual(rising[1], 2.5, 1e-12, 0) {
		t.Errorf("rising crossings = %v", rising)
	}
	falling := CrossingTimes(times, values, 0.5, false)
	if len(falling) != 2 || !mathx.ApproxEqual(falling[0], 1.5, 1e-12, 0) {
		t.Errorf("falling crossings = %v", falling)
	}
}

func TestCountTransitions(t *testing.T) {
	// Clean square wave: 3 swings.
	vals := []float64{0, 1, 0, 1}
	if got := CountTransitions(vals, 0.2, 0.8); got != 3 {
		t.Errorf("transitions = %d, want 3", got)
	}
	// Noise inside the hysteresis band must not count.
	noisy := []float64{0, 0.5, 0.3, 0.6, 0.1, 0.5, 0.4}
	if got := CountTransitions(noisy, 0.2, 0.8); got != 0 {
		t.Errorf("hysteresis leak: %d transitions", got)
	}
}

func TestCountTransitionsPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CountTransitions([]float64{0}, 0.8, 0.2)
}

func TestNoiseMarginsFromVTC(t *testing.T) {
	// Build a real inverter VTC via DC sweep.
	tech := device.MustTech("90nm")
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
	c.AddVSource("VIN", "in", "0", circuit.DC(0))
	mn := device.NewMosfet(tech.NMOSParams(1e-6, 90e-9, 300))
	mp := device.NewMosfet(tech.PMOSParams(2e-6, 90e-9, 300))
	c.AddMOSFET("MN", "out", "in", "0", "0", mn)
	c.AddMOSFET("MP", "out", "in", "vdd", "vdd", mp)
	vin := mathx.Linspace(0, tech.VDD, 56)
	sols, err := c.DCSweep("VIN", vin)
	if err != nil {
		t.Fatal(err)
	}
	vout := make([]float64, len(sols))
	for i, s := range sols {
		vout[i] = s.Voltage("out")
	}
	nml, nmh, err := NoiseMargins(vin, vout)
	if err != nil {
		t.Fatal(err)
	}
	if nml <= 0 || nmh <= 0 {
		t.Fatalf("margins must be positive: NML=%g NMH=%g", nml, nmh)
	}
	if nml+nmh >= tech.VDD {
		t.Errorf("NML+NMH = %g cannot reach VDD", nml+nmh)
	}
}

func TestNoiseMarginsErrors(t *testing.T) {
	if _, _, err := NoiseMargins([]float64{0, 1}, []float64{1, 0}); err == nil {
		t.Error("short VTC accepted")
	}
	flat := mathx.Linspace(0, 1, 10)
	ones := make([]float64, 10)
	if _, _, err := NoiseMargins(flat, ones); err == nil {
		t.Error("gainless VTC accepted")
	}
}

func TestInverterJitterGrowsWithEMI(t *testing.T) {
	tech := device.MustTech("90nm")
	small, err := InverterJitter(tech, Injection{Ampl: 0.02, Freq: 200e6}, 100e-9, 4)
	if err != nil {
		t.Fatal(err)
	}
	large, err := InverterJitter(tech, Injection{Ampl: 0.15, Freq: 200e6}, 100e-9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if large <= small {
		t.Errorf("jitter should grow with EMI amplitude: %g <= %g", large, small)
	}
	if large <= 0 || large > 100e-9 {
		t.Errorf("jitter %g s implausible", large)
	}
}

func TestFalseSwitchingThreshold(t *testing.T) {
	tech := device.MustTech("90nm")
	quiet, err := FalseSwitchCount(tech, Injection{Ampl: 0.05, Freq: 50e6}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if quiet != 0 {
		t.Errorf("small EMI should not switch the gate, got %d transitions", quiet)
	}
	loud, err := FalseSwitchCount(tech, Injection{Ampl: 0.9, Freq: 50e6}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if loud == 0 {
		t.Error("near-rail EMI should cause false switching")
	}
}
