package core

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
)

func voutMetric(node string) func(*circuit.Circuit) (float64, error) {
	return func(c *circuit.Circuit) (float64, error) {
		sol, err := c.OperatingPoint()
		if err != nil {
			return 0, err
		}
		return sol.Voltage(node), nil
	}
}

func TestVTSensitivitiesIdentifyCriticalDevice(t *testing.T) {
	// Cascode-ish stack: the bottom (gm-setting) device should dominate
	// the output sensitivity over a diode-connected helper biased
	// elsewhere.
	tech := device.MustTech("90nm")
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
	c.AddVSource("VG", "g", "0", circuit.DC(0.55))
	c.AddResistor("RD", "vdd", "d", 20e3)
	c.AddMOSFET("Mmain", "d", "g", "0", "0",
		device.NewMosfet(tech.NMOSParams(2e-6, 180e-9, 300)))
	// A lightly coupled side branch: diode device through a big resistor.
	c.AddResistor("RS", "vdd", "x", 1e6)
	c.AddMOSFET("Mside", "x", "x", "0", "0",
		device.NewMosfet(tech.NMOSParams(1e-6, 180e-9, 300)))

	sens, err := VTSensitivities(c, voutMetric("d"), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) != 2 {
		t.Fatalf("got %d sensitivities", len(sens))
	}
	if sens[0].Device != "Mmain" {
		t.Errorf("dominant device = %s, want Mmain (sens %v)", sens[0].Device, sens)
	}
	// Raising the nMOS threshold lowers its current, raising V(d):
	// positive sensitivity.
	if sens[0].DMetricDVT <= 0 {
		t.Errorf("main sensitivity %g should be positive", sens[0].DMetricDVT)
	}
	// The decoupled device's influence on V(d) must be negligible.
	var side float64
	for _, s := range sens {
		if s.Device == "Mside" {
			side = s.DMetricDVT
		}
	}
	if abs(side) > abs(sens[0].DMetricDVT)/100 {
		t.Errorf("side branch sensitivity %g too large", side)
	}
}

func TestVTSensitivitiesRestoreState(t *testing.T) {
	tech := device.MustTech("90nm")
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
	c.AddResistor("RD", "vdd", "d", 20e3)
	m := device.NewMosfet(tech.NMOSParams(2e-6, 180e-9, 300))
	m.Damage = device.Damage{DeltaVT: 0.02, MobilityFactor: 0.9, LambdaFactor: 1.1}
	c.AddMOSFET("M1", "d", "d", "0", "0", m)
	before := m.Damage
	if _, err := VTSensitivities(c, voutMetric("d"), 1e-3); err != nil {
		t.Fatal(err)
	}
	if m.Damage != before {
		t.Error("sensitivity analysis leaked damage-state changes")
	}
}

func TestVTSensitivitiesValidation(t *testing.T) {
	c := circuit.New()
	c.AddVSource("V1", "a", "0", circuit.DC(1))
	c.AddResistor("R1", "a", "0", 1e3)
	if _, err := VTSensitivities(c, voutMetric("a"), 1e-3); err == nil {
		t.Error("MOSFET-free circuit accepted")
	}
	tech := device.MustTech("90nm")
	c.AddMOSFET("M1", "a", "a", "0", "0",
		device.NewMosfet(tech.NMOSParams(1e-6, 90e-9, 300)))
	if _, err := VTSensitivities(c, voutMetric("a"), 0); err == nil {
		t.Error("zero perturbation accepted")
	}
}
