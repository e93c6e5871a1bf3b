package adapt

import (
	"context"
	"math"
	"testing"

	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
	"repro/internal/variation"
)

// TestBodyBiasKnobCompensatesAging exercises the second classic knob of
// the knobs-and-monitors toolbox: adaptive body biasing. Forward body bias
// lowers |VT| through the body effect, buying back the threshold shift
// that NBTI accumulated — without touching the gate bias.
func TestBodyBiasKnobCompensatesAging(t *testing.T) {
	tech := device.MustTech("65nm")
	build := func() (*circuit.Circuit, *Knob, Monitor) {
		c := circuit.New()
		c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
		vg := c.AddVSource("VG", "g", "0", circuit.DC(tech.VDD-0.45))
		vg.ACMag = 1
		// The bulk rides on its own source: the body-bias knob.
		vb := c.AddVSource("VB", "bulk", "0", circuit.DC(tech.VDD))
		c.AddResistor("RD", "d", "0", 20e3)
		m := device.NewMosfet(tech.PMOSParams(4e-6, 2*tech.Lmin, 300))
		c.AddMOSFET("M1", "d", "g", "vdd", "bulk", m)
		// Levels walk the pMOS bulk below VDD: forward body bias.
		knob := VSourceKnob("vbb", vb, mathx.Linspace(tech.VDD, tech.VDD-0.4, 6))
		return c, knob, ACGainMonitor("gain", "d", 1e3)
	}

	c, knob, gain := build()
	ctrl, err := NewController([]*Knob{knob}, []Monitor{gain},
		[]variation.Spec{{Name: "gain", Lo: 5, Hi: math.Inf(1)}}, Exhaustive)
	if err != nil {
		t.Fatal(err)
	}
	tr0, err := ctrl.Tune(c)
	if err != nil {
		t.Fatal(err)
	}
	if !tr0.InSpec {
		t.Fatalf("fresh amplifier cannot meet spec (gain %v)", tr0.Values)
	}
	freshKnob := knob.Index()

	// Age for one year at 380 K — a shift inside the ~0.1 V recovery
	// authority a 0.4 V forward body bias has through the body effect.
	ager := aging.NewCircuitAger(c, aging.Models{NBTI: aging.DefaultNBTI()}, 380, 5)
	const oneYear = 365.25 * 24 * 3600
	if _, err := ager.AgeToCtx(context.Background(), []float64{oneYear}); err != nil {
		t.Fatal(err)
	}
	// Without re-tuning the gain has sagged.
	_, costAged, err := ctrl.Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	if costAged == 0 {
		t.Skip("mission too gentle — amp still in spec without help")
	}
	tr1, err := ctrl.Tune(c)
	if err != nil {
		t.Fatal(err)
	}
	if !tr1.InSpec {
		t.Fatalf("body-bias knob could not recover the spec (cost %g)", tr1.Cost)
	}
	if tr1.Evaluations < 2 {
		t.Error("controller did not search")
	}
	if knob.Index() == freshKnob {
		t.Error("recovery without moving the body bias — test vehicle broken")
	}
	// The chosen bulk voltage is below VDD: forward body bias on pMOS.
	if knob.Value() >= tech.VDD {
		t.Errorf("expected forward body bias, knob at %g", knob.Value())
	}
}
