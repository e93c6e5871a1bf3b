package aging

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
)

// mirrorCircuit builds an NMOS current mirror with a resistive reference.
func mirrorCircuit(tech *device.Technology) *circuit.Circuit {
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
	c.AddResistor("RREF", "vdd", "ref", 20e3)
	m1 := device.NewMosfet(tech.NMOSParams(2e-6, 4*tech.Lmin, 300))
	m2 := device.NewMosfet(tech.NMOSParams(2e-6, 4*tech.Lmin, 300))
	c.AddMOSFET("M1", "ref", "ref", "0", "0", m1) // diode-connected
	c.AddMOSFET("M2", "out", "ref", "0", "0", m2)
	c.AddResistor("RL", "vdd", "out", 5e3)
	return c
}

func TestExtractStressOP(t *testing.T) {
	tech := device.MustTech("90nm")
	c := mirrorCircuit(tech)
	if _, err := c.OperatingPoint(); err != nil {
		t.Fatal(err)
	}
	stress := ExtractStressOP(c, 330)
	if len(stress) != 2 {
		t.Fatalf("extracted %d stresses", len(stress))
	}
	s1 := stress["M1"]
	if s1.Vgs <= 0 || s1.Duty != 1 || s1.TempK != 330 {
		t.Errorf("M1 stress implausible: %+v", s1)
	}
	// Diode-connected: vgs == vds.
	if !mathx.ApproxEqual(s1.Vgs, s1.Vds, 1e-9, 1e-12) {
		t.Errorf("diode-connected device must have vgs=vds: %+v", s1)
	}
}

func TestDeviceAgerMonotoneShift(t *testing.T) {
	tech := device.MustTech("65nm")
	dev := device.NewMosfet(tech.NMOSParams(1e-6, 65e-9, 300))
	ager := NewDeviceAger(Models{NBTI: DefaultNBTI(), HCI: DefaultHCI()}, dev, mathx.NewRNG(1))
	stress := Stress{Vgs: 1.1, Vds: 1.1, Duty: 1, TempK: 350}
	prev := 0.0
	for i := 0; i < 50; i++ {
		d := ager.Step(stress, 1e5)
		if d.DeltaVT < prev {
			t.Fatalf("shift decreased at step %d", i)
		}
		prev = d.DeltaVT
	}
	if prev <= 0 {
		t.Fatal("no degradation accumulated under stress")
	}
	if dev.Damage.DeltaVT != prev {
		t.Error("damage not installed on the device")
	}
	nbti, hci := ager.Shifts()
	if hci <= 0 {
		t.Error("nMOS saturation stress must produce HCI")
	}
	if nbti < 0 {
		t.Error("negative NBTI component")
	}
}

func TestPMOSNBTIDominatesNMOS(t *testing.T) {
	tech := device.MustTech("65nm")
	nm := device.NewMosfet(tech.NMOSParams(1e-6, 65e-9, 300))
	pm := device.NewMosfet(tech.PMOSParams(1e-6, 65e-9, 300))
	models := Models{NBTI: DefaultNBTI()}
	agerN := NewDeviceAger(models, nm, mathx.NewRNG(1))
	agerP := NewDeviceAger(models, pm, mathx.NewRNG(2))
	// Gate stress only, no drain bias: pure BTI.
	agerN.Step(Stress{Vgs: 1.1, Duty: 1, TempK: 350}, 1e7)
	agerP.Step(Stress{Vgs: -1.1, Duty: 1, TempK: 350}, 1e7)
	nbtiN, _ := agerN.Shifts()
	nbtiP, _ := agerP.Shifts()
	if nbtiP <= nbtiN {
		t.Errorf("NBTI must hit pMOS harder: pmos=%g nmos=%g", nbtiP, nbtiN)
	}
	if nbtiN <= 0 {
		t.Error("nMOS PBTI should be present but derated")
	}
}

func TestDutyReducesAging(t *testing.T) {
	tech := device.MustTech("65nm")
	mk := func(duty float64) float64 {
		dev := device.NewMosfet(tech.PMOSParams(1e-6, 65e-9, 300))
		ager := NewDeviceAger(Models{NBTI: DefaultNBTI()}, dev, mathx.NewRNG(1))
		ager.Step(Stress{Vgs: -1.1, Duty: duty, TempK: 350}, 1e7)
		n, _ := ager.Shifts()
		return n
	}
	if !(mk(0.25) < mk(0.5) && mk(0.5) < mk(1.0)) {
		t.Error("aging must increase with duty factor")
	}
	if mk(0) != 0 {
		t.Error("zero duty must not age")
	}
}

func TestCircuitAgerMirrorDrifts(t *testing.T) {
	tech := device.MustTech("90nm")
	c := mirrorCircuit(tech)
	ager := NewCircuitAger(c, Models{NBTI: DefaultNBTI(), HCI: DefaultHCI()}, 350, 42)
	const year = 365.25 * 24 * 3600
	traj, err := ager.AgeToCtx(context.Background(), LogCheckpoints(3600, 10*year, 12))
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != 13 {
		t.Fatalf("trajectory has %d points", len(traj))
	}
	fresh := traj[0].Solution.Voltage("out")
	aged := traj[len(traj)-1].Solution.Voltage("out")
	// Degraded mirror sinks less current, so V(out) = VDD - I·RL rises.
	if aged <= fresh {
		t.Errorf("output should drift up as the mirror degrades: fresh=%g aged=%g", fresh, aged)
	}
	drift := aged - fresh
	if drift < 1e-4 || drift > 0.5 {
		t.Errorf("10-year drift %g V implausible", drift)
	}
	names := ager.SortedAgerNames()
	if len(names) != 2 || names[0] != "M1" {
		t.Errorf("SortedAgerNames = %v", names)
	}
}

func TestCircuitAgerDeterministic(t *testing.T) {
	tech := device.MustTech("90nm")
	run := func() float64 {
		c := mirrorCircuit(tech)
		ager := NewCircuitAger(c, DefaultModels(), 350, 7)
		traj, err := ager.AgeToCtx(context.Background(), LogCheckpoints(1e4, 1e8, 8))
		if err != nil {
			t.Fatal(err)
		}
		return traj[len(traj)-1].Solution.Voltage("out")
	}
	if run() != run() {
		t.Error("aging run not reproducible for fixed seed")
	}
}

func TestAgeToValidatesCheckpoints(t *testing.T) {
	tech := device.MustTech("90nm")
	c := mirrorCircuit(tech)
	ager := NewCircuitAger(c, DefaultModels(), 350, 1)
	if _, err := ager.AgeToCtx(context.Background(), nil); err == nil {
		t.Error("empty checkpoints accepted")
	}
	if _, err := ager.AgeToCtx(context.Background(), []float64{10, 5}); err == nil {
		t.Error("non-increasing checkpoints accepted")
	}
}

func TestDutyOverride(t *testing.T) {
	tech := device.MustTech("90nm")
	run := func(duty float64) float64 {
		c := mirrorCircuit(tech)
		ager := NewCircuitAger(c, Models{NBTI: DefaultNBTI(), HCI: DefaultHCI()}, 350, 3)
		ager.DutyOverride = map[string]float64{"M1": duty, "M2": duty}
		traj, err := ager.AgeToCtx(context.Background(), []float64{1e8})
		if err != nil {
			t.Fatal(err)
		}
		return traj[len(traj)-1].Solution.Voltage("out")
	}
	full := run(1)
	light := run(0.1)
	freshC := mirrorCircuit(tech)
	sol, _ := freshC.OperatingPoint()
	fresh := sol.Voltage("out")
	if math.Abs(light-fresh) >= math.Abs(full-fresh) {
		t.Errorf("light duty should age less: |%g| vs |%g|", light-fresh, full-fresh)
	}
}

func TestLinCheckpoints(t *testing.T) {
	cps := LinCheckpoints(100, 4)
	want := []float64{25, 50, 75, 100}
	for i := range want {
		if cps[i] != want[i] {
			t.Errorf("LinCheckpoints[%d] = %g, want %g", i, cps[i], want[i])
		}
	}
}

func TestTDDBInCircuitEventuallyLeaks(t *testing.T) {
	// With TDDB enabled and brutal overdrive, some device should break
	// down and acquire gate leak within an exaggerated mission.
	tech := device.MustTech("45nm")
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(3.0)) // far above nominal 1.0 V
	c.AddResistor("R1", "vdd", "g", 1e3)
	dev := device.NewMosfet(tech.NMOSParams(10e-6, 45e-9, 300))
	c.AddMOSFET("M1", "d", "g", "0", "0", dev)
	c.AddResistor("RD", "vdd", "d", 10e3)
	ager := NewCircuitAger(c, Models{TDDB: DefaultTDDB()}, 400, 11)
	if _, err := ager.AgeToCtx(context.Background(), mathx.Logspace(1e4, 1e12, 30)); err != nil {
		t.Fatal(err)
	}
	if ager.Ager("M1").BDMode() == Fresh {
		t.Error("oxide survived an absurd overstress — TDDB coupling broken")
	}
	if dev.Damage.GateLeak <= 0 {
		t.Error("breakdown did not install gate leak")
	}
}
