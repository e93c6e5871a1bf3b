package circuit

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/mathx"
)

func TestVoltageDivider(t *testing.T) {
	c := New()
	c.AddVSource("V1", "in", "0", DC(10))
	c.AddResistor("R1", "in", "out", 1e3)
	c.AddResistor("R2", "out", "0", 1e3)
	sol, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.ApproxEqual(sol.Voltage("out"), 5, 1e-9, 1e-9) {
		t.Errorf("divider output = %g, want 5", sol.Voltage("out"))
	}
	i, err := sol.BranchCurrent("V1")
	if err != nil {
		t.Fatal(err)
	}
	// Source supplies 5 mA; MNA convention stores current flowing from +
	// terminal through the source, which is negative here.
	if !mathx.ApproxEqual(i, -5e-3, 1e-9, 1e-12) {
		t.Errorf("source current = %g, want -5mA", i)
	}
}

func TestCurrentSourceIntoResistor(t *testing.T) {
	c := New()
	c.AddISource("I1", "0", "out", DC(1e-3))
	c.AddResistor("R1", "out", "0", 2e3)
	sol, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.ApproxEqual(sol.Voltage("out"), 2, 1e-9, 1e-12) {
		t.Errorf("V(out) = %g, want 2", sol.Voltage("out"))
	}
}

func TestSolutionUnknownNodePanics(t *testing.T) {
	c := New()
	c.AddVSource("V1", "a", "0", DC(1))
	c.AddResistor("R1", "a", "0", 1)
	sol, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown node")
		}
	}()
	sol.Voltage("nope")
}

func TestDuplicateElementPanics(t *testing.T) {
	c := New()
	c.AddResistor("R1", "a", "0", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate name")
		}
	}()
	c.AddResistor("R1", "b", "0", 1)
}

func TestDiodeRectifierOP(t *testing.T) {
	c := New()
	c.AddVSource("V1", "in", "0", DC(5))
	c.AddResistor("R1", "in", "out", 1e3)
	c.AddDiode("D1", "out", "0", device.NewDiode(300))
	sol, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	v := sol.Voltage("out")
	if v < 0.4 || v > 0.8 {
		t.Errorf("diode drop = %g, want ~0.6-0.7", v)
	}
}

func TestNMOSCommonSourceOP(t *testing.T) {
	tech := device.MustTech("180nm")
	c := New()
	c.AddVSource("VDD", "vdd", "0", DC(1.8))
	c.AddVSource("VG", "g", "0", DC(0.9))
	c.AddResistor("RD", "vdd", "d", 10e3)
	mos := c.AddMOSFET("M1", "d", "g", "0", "0", device.NewMosfet(tech.NMOSParams(2e-6, 180e-9, 300)))
	sol, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	vd := sol.Voltage("d")
	if vd <= 0 || vd >= 1.8 {
		t.Fatalf("drain voltage %g outside supply range", vd)
	}
	// KCL check: resistor current equals drain current.
	ir := (1.8 - vd) / 10e3
	if !mathx.ApproxEqual(ir, mos.OP().ID, 1e-6, 1e-12) {
		t.Errorf("KCL violated: IR=%g ID=%g", ir, mos.OP().ID)
	}
}

func TestCMOSInverterVTC(t *testing.T) {
	tech := device.MustTech("90nm")
	c := New()
	c.AddVSource("VDD", "vdd", "0", DC(1.1))
	c.AddVSource("VIN", "in", "0", DC(0))
	mn := device.NewMosfet(tech.NMOSParams(1e-6, 90e-9, 300))
	mp := device.NewMosfet(tech.PMOSParams(2e-6, 90e-9, 300))
	c.AddMOSFET("MN", "out", "in", "0", "0", mn)
	c.AddMOSFET("MP", "out", "in", "vdd", "vdd", mp)
	vins := mathx.Linspace(0, 1.1, 23)
	sols, err := c.DCSweep("VIN", vins)
	if err != nil {
		t.Fatal(err)
	}
	vouts := make([]float64, len(sols))
	for i, s := range sols {
		vouts[i] = s.Voltage("out")
	}
	// Monotone falling VTC from ~VDD to ~0.
	if vouts[0] < 1.0 {
		t.Errorf("V(out) at VIN=0 is %g, want ~VDD", vouts[0])
	}
	if vouts[len(vouts)-1] > 0.1 {
		t.Errorf("V(out) at VIN=VDD is %g, want ~0", vouts[len(vouts)-1])
	}
	for i := 1; i < len(vouts); i++ {
		if vouts[i] > vouts[i-1]+1e-6 {
			t.Fatalf("VTC not monotone at VIN=%g: %g -> %g", vins[i], vouts[i-1], vouts[i])
		}
	}
}

func TestRCTransientCharging(t *testing.T) {
	// Step response: V(out) = 5(1 - exp(-t/RC)), RC = 1 ms.
	for _, intg := range []Integrator{BackwardEuler, Trapezoidal} {
		c := New()
		c.AddVSource("V1", "in", "0", Pulse{Low: 0, High: 5, Rise: 1e-9, Width: 1, Period: 2})
		c.AddResistor("R1", "in", "out", 1e3)
		c.AddCapacitor("C1", "out", "0", 1e-6)
		wf, err := c.Transient(TranSpec{Stop: 5e-3, Step: 5e-6, Integrator: intg, Record: []string{"out"}})
		if err != nil {
			t.Fatalf("%v: %v", intg, err)
		}
		out := wf.Node("out")
		// Compare at t = 1ms, 2ms, 5ms.
		for _, chk := range []struct{ t, want float64 }{
			{1e-3, 5 * (1 - math.Exp(-1))},
			{2e-3, 5 * (1 - math.Exp(-2))},
			{5e-3, 5 * (1 - math.Exp(-5))},
		} {
			idx := int(chk.t/5e-6 + 0.5)
			got := out[idx]
			if math.Abs(got-chk.want) > 0.02 {
				t.Errorf("%v at t=%g: V=%g, want %g", intg, chk.t, got, chk.want)
			}
		}
	}
}

func TestTrapezoidalMoreAccurateThanBE(t *testing.T) {
	// On a sine-driven RC with a coarse step, trapezoidal should track the
	// analytic solution more closely than Backward-Euler.
	run := func(intg Integrator) float64 {
		c := New()
		f := 1e3
		c.AddVSource("V1", "in", "0", Sine{Ampl: 1, Freq: f})
		c.AddResistor("R1", "in", "out", 1e3)
		c.AddCapacitor("C1", "out", "0", 1e-7)
		wf, err := c.Transient(TranSpec{Stop: 5e-3, Step: 2e-5, Integrator: intg, Record: []string{"out"}})
		if err != nil {
			t.Fatal(err)
		}
		// Analytic steady-state: |H| = 1/sqrt(1+(wRC)^2), phase = -atan(wRC).
		w := 2 * math.Pi * f
		rc := 1e3 * 1e-7
		mag := 1 / math.Sqrt(1+w*rc*w*rc)
		ph := -math.Atan(w * rc)
		worst := 0.0
		for i, tm := range wf.Times {
			if tm < 2e-3 { // skip start-up transient
				continue
			}
			want := mag * math.Sin(w*tm+ph)
			if d := math.Abs(wf.Node("out")[i] - want); d > worst {
				worst = d
			}
		}
		return worst
	}
	errBE := run(BackwardEuler)
	errTR := run(Trapezoidal)
	if errTR >= errBE {
		t.Errorf("trapezoidal error %g not better than BE %g", errTR, errBE)
	}
}

func TestInductorDCShort(t *testing.T) {
	c := New()
	c.AddVSource("V1", "in", "0", DC(1))
	c.AddResistor("R1", "in", "mid", 100)
	c.AddInductor("L1", "mid", "out", 1e-3)
	c.AddResistor("R2", "out", "0", 100)
	sol, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	// DC: inductor is a short, so mid == out == 0.5 V.
	if !mathx.ApproxEqual(sol.Voltage("mid"), sol.Voltage("out"), 1e-9, 1e-12) {
		t.Errorf("inductor not a DC short: %g vs %g", sol.Voltage("mid"), sol.Voltage("out"))
	}
	il, err := sol.BranchCurrent("L1")
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.ApproxEqual(il, 5e-3, 1e-9, 1e-12) {
		t.Errorf("inductor current = %g, want 5 mA", il)
	}
}

func TestRLTransientRise(t *testing.T) {
	// L/R time constant: i(t) = (V/R)(1-exp(-tR/L)).
	c := New()
	c.AddVSource("V1", "in", "0", Pulse{Low: 0, High: 1, Rise: 1e-9, Width: 1, Period: 2})
	c.AddResistor("R1", "in", "mid", 100)
	c.AddInductor("L1", "mid", "0", 10e-3) // tau = 100 µs
	wf, err := c.Transient(TranSpec{Stop: 500e-6, Step: 1e-6, Integrator: Trapezoidal, Record: []string{"mid"}})
	if err != nil {
		t.Fatal(err)
	}
	// At t = tau the inductor voltage should be V·exp(-1).
	idx := 100 // t = tau = 100 µs at 1 µs step
	got := wf.Node("mid")[idx]
	want := math.Exp(-1)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("V(L) at tau = %g, want %g", got, want)
	}
}

func TestVCCS(t *testing.T) {
	c := New()
	c.AddVSource("V1", "ctl", "0", DC(2))
	c.AddResistor("Rctl", "ctl", "0", 1e6)
	c.AddVCCS("G1", "0", "out", "ctl", "0", 1e-3) // 1 mS: injects 2 mA into out
	c.AddResistor("RL", "out", "0", 500)
	sol, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.ApproxEqual(sol.Voltage("out"), 1.0, 1e-9, 1e-12) {
		t.Errorf("VCCS output = %g, want 1.0", sol.Voltage("out"))
	}
}

func TestACRCLowPass(t *testing.T) {
	c := New()
	v := c.AddVSource("V1", "in", "0", DC(0))
	v.ACMag = 1
	c.AddResistor("R1", "in", "out", 1e3)
	c.AddCapacitor("C1", "out", "0", 1e-9)
	fc := 1 / (2 * math.Pi * 1e3 * 1e-9)
	pts, err := c.AC([]float64{fc / 100, fc, fc * 100})
	if err != nil {
		t.Fatal(err)
	}
	if m := pts[0].Mag("out"); math.Abs(m-1) > 0.001 {
		t.Errorf("passband gain = %g, want 1", m)
	}
	if m := pts[1].Mag("out"); math.Abs(m-1/math.Sqrt2) > 0.001 {
		t.Errorf("corner gain = %g, want %g", m, 1/math.Sqrt2)
	}
	if m := pts[2].Mag("out"); m > 0.011 {
		t.Errorf("stopband gain = %g, want ~0.01", m)
	}
	// Phase at the corner is -45°.
	if ph := pts[1].PhaseDeg("out"); math.Abs(ph+45) > 0.5 {
		t.Errorf("corner phase = %g°, want -45°", ph)
	}
}

func TestACMOSFETAmplifierGain(t *testing.T) {
	// Common-source amplifier small-signal gain ≈ -gm·(RD||ro).
	tech := device.MustTech("180nm")
	c := New()
	c.AddVSource("VDD", "vdd", "0", DC(1.8))
	vin := c.AddVSource("VG", "g", "0", DC(0.7))
	vin.ACMag = 1
	c.AddResistor("RD", "vdd", "d", 20e3)
	mos := c.AddMOSFET("M1", "d", "g", "0", "0", device.NewMosfet(tech.NMOSParams(4e-6, 360e-9, 300)))
	pts, err := c.AC([]float64{1e3})
	if err != nil {
		t.Fatal(err)
	}
	gain := pts[0].Mag("d")
	op := mos.OP()
	want := op.Gm / (1.0/20e3 + op.Gds)
	if !mathx.ApproxEqual(gain, want, 0.01, 0) {
		t.Errorf("AC gain %g, analytic gm/(GD+gds) = %g", gain, want)
	}
	if gain < 2 {
		t.Errorf("gain %g too small — bias point wrong?", gain)
	}
}

func TestTransientSineRectification(t *testing.T) {
	// A diode rectifier driven by a sine should produce a positive mean
	// output — the same nonlinear mechanism that causes EMI-induced DC
	// shift.
	c := New()
	c.AddVSource("V1", "in", "0", Sine{Ampl: 2, Freq: 1e3})
	c.AddResistor("Rs", "in", "a", 100)
	c.AddDiode("D1", "a", "out", device.NewDiode(300))
	c.AddResistor("RL", "out", "0", 10e3)
	c.AddCapacitor("CL", "out", "0", 1e-6)
	wf, err := c.Transient(TranSpec{Stop: 10e-3, Step: 2e-6, Record: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	out := wf.Node("out")
	mean := mathx.Mean(out[len(out)/2:])
	if mean < 0.5 {
		t.Errorf("rectified mean = %g, want > 0.5", mean)
	}
}

func TestWaveformsUnknownNodePanics(t *testing.T) {
	c := New()
	c.AddVSource("V1", "a", "0", DC(1))
	c.AddResistor("R1", "a", "0", 1e3)
	c.AddCapacitor("C1", "a", "0", 1e-9)
	wf, err := c.Transient(TranSpec{Stop: 1e-6, Step: 1e-8, Record: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	wf.Node("b")
}

func TestEmptyCircuitErrors(t *testing.T) {
	c := New()
	if _, err := c.OperatingPoint(); err == nil {
		t.Error("empty OP should fail")
	}
	if _, err := c.Transient(TranSpec{Stop: 1, Step: 0.1}); err == nil {
		t.Error("empty transient should fail")
	}
}

func TestBadTranSpec(t *testing.T) {
	c := New()
	c.AddResistor("R1", "a", "0", 1)
	if _, err := c.Transient(TranSpec{Stop: 0, Step: 1}); err == nil {
		t.Error("zero stop accepted")
	}
	if _, err := c.Transient(TranSpec{Stop: 1, Step: -1}); err == nil {
		t.Error("negative step accepted")
	}
}

func TestACErrorsOnNonPositiveFreq(t *testing.T) {
	c := New()
	c.AddVSource("V1", "a", "0", DC(1))
	c.AddResistor("R1", "a", "0", 1)
	if _, err := c.AC([]float64{0}); err == nil {
		t.Error("zero frequency accepted")
	}
}

func TestElementAccessors(t *testing.T) {
	c := New()
	tech := device.MustTech("65nm")
	c.AddVSource("V1", "a", "0", DC(1))
	c.AddISource("I1", "a", "0", DC(1e-6))
	c.AddMOSFET("M1", "a", "a", "0", "0", device.NewMosfet(tech.NMOSParams(1e-6, 65e-9, 300)))
	if _, err := c.VSourceByName("V1"); err != nil {
		t.Error(err)
	}
	if _, err := c.VSourceByName("I1"); err == nil {
		t.Error("wrong type accepted")
	}
	if got := len(c.MOSFETList()); got != 1 {
		t.Errorf("MOSFETList() returned %d", got)
	}
	names := c.ElementNames()
	if len(names) != 3 || names[0] != "I1" {
		t.Errorf("ElementNames = %v", names)
	}
}

func TestMOSFETGateLeakLoadsDivider(t *testing.T) {
	// A broken-down gate oxide must load a resistive divider at the gate.
	tech := device.MustTech("65nm")
	build := func(leak float64) float64 {
		c := New()
		c.AddVSource("VDD", "vdd", "0", DC(1.1))
		c.AddResistor("R1", "vdd", "g", 100e3)
		c.AddResistor("R2", "g", "0", 100e3)
		m := device.NewMosfet(tech.NMOSParams(1e-6, 65e-9, 300))
		m.Damage = device.FreshDamage()
		m.Damage.GateLeak = leak
		c.AddMOSFET("M1", "d", "g", "0", "0", m)
		c.AddResistor("RD", "vdd", "d", 10e3)
		sol, err := c.OperatingPoint()
		if err != nil {
			t.Fatal(err)
		}
		return sol.Voltage("g")
	}
	fresh := build(0)
	broken := build(1e-5) // 100 kΩ leak
	if !(broken < fresh) {
		t.Errorf("gate leak did not pull the divider: fresh=%g broken=%g", fresh, broken)
	}
	if fresh < 0.54 || fresh > 0.56 {
		t.Errorf("fresh divider = %g, want ~0.55", fresh)
	}
}
