package adapt

import (
	"math"
	"testing"

	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
	"repro/internal/variation"
)

// OPVoltageMonitor returns a monitor reading a DC node voltage.
func OPVoltageMonitor(name, node string) Monitor {
	return Monitor{Name: name, Measure: func(c *circuit.Circuit) (float64, error) {
		sol, err := c.OperatingPoint()
		if err != nil {
			return 0, err
		}
		return sol.Voltage(node), nil
	}}
}

// ampSystem builds a common-source amplifier with a gate-bias knob and a
// gain monitor — the canonical knobs-and-monitors demonstrator.
type ampSystem struct {
	circ *circuit.Circuit
	knob *Knob
	gain Monitor
}

func buildAmp(tech *device.Technology) *ampSystem {
	// PMOS common-source stage: NBTI (the dominant aging mechanism) hits
	// p-channel devices at full strength, so this amplifier measurably
	// degrades over a mission. The gate-bias knob compensates by pulling
	// the gate further below the source as |VT| grows.
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
	vg := c.AddVSource("VG", "g", "0", circuit.DC(tech.VDD-0.45))
	vg.ACMag = 1
	c.AddResistor("RD", "d", "0", 20e3)
	m := device.NewMosfet(tech.PMOSParams(4e-6, 2*tech.Lmin, 300))
	c.AddMOSFET("M1", "d", "g", "vdd", "vdd", m)
	// Knob levels run from weak bias (gate near the rail) to strong.
	knob := VSourceKnob("vbias", vg, mathx.Linspace(tech.VDD-0.44, 0.2, 10))
	return &ampSystem{
		circ: c,
		knob: knob,
		gain: ACGainMonitor("gain", "d", 1e3),
	}
}

func TestKnobBasics(t *testing.T) {
	applied := 0.0
	k := NewKnob("k", []float64{1, 2, 3}, func(v float64) { applied = v })
	if applied != 1 || k.Index() != 0 || k.Value() != 1 {
		t.Fatal("knob must apply its first level at construction")
	}
	k.SetIndex(2)
	if applied != 3 || k.Value() != 3 {
		t.Error("SetIndex did not apply")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range index should panic")
		}
	}()
	k.SetIndex(5)
}

func TestNewKnobPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKnob("bad", nil, func(float64) {})
}

func TestControllerValidation(t *testing.T) {
	k := NewKnob("k", []float64{1}, func(float64) {})
	m := Monitor{Name: "m", Measure: func(*circuit.Circuit) (float64, error) { return 0, nil }}
	s := variation.Spec{Lo: 0, Hi: 1}
	if _, err := NewController(nil, []Monitor{m}, []variation.Spec{s}, Greedy); err == nil {
		t.Error("no knobs accepted")
	}
	if _, err := NewController([]*Knob{k}, []Monitor{m}, nil, Greedy); err == nil {
		t.Error("mismatched specs accepted")
	}
	if _, err := NewController([]*Knob{k}, []Monitor{m}, []variation.Spec{s}, Greedy); err != nil {
		t.Errorf("valid controller rejected: %v", err)
	}
}

func TestSpecCost(t *testing.T) {
	s := variation.Spec{Lo: 10, Hi: 20}
	if specCost(s, 15) != 0 {
		t.Error("in-spec value must cost 0")
	}
	if specCost(s, 5) <= 0 || specCost(s, 25) <= 0 {
		t.Error("violations must cost > 0")
	}
	if specCost(s, 5) <= specCost(s, 9) {
		t.Error("cost must grow with violation distance")
	}
}

func TestTuneFindsGainConfiguration(t *testing.T) {
	tech := device.MustTech("90nm")
	for _, policy := range []Policy{Exhaustive, Greedy} {
		sys := buildAmp(tech)
		ctrl, err := NewController(
			[]*Knob{sys.knob},
			[]Monitor{sys.gain},
			[]variation.Spec{{Name: "gain", Lo: 4, Hi: math.Inf(1)}},
			policy,
		)
		if err != nil {
			t.Fatal(err)
		}
		// Start the knob at the lowest bias, which underbiases the amp.
		sys.knob.SetIndex(0)
		tr, err := ctrl.Tune(sys.circ)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if !tr.InSpec {
			t.Fatalf("%v: no configuration met gain spec (cost %g, values %v)", policy, tr.Cost, tr.Values)
		}
		if tr.Values[0] < 4 {
			t.Errorf("%v: applied config gain %g below spec", policy, tr.Values[0])
		}
		if tr.Evaluations < 2 {
			t.Errorf("%v: suspiciously few evaluations (%d)", policy, tr.Evaluations)
		}
	}
}

func TestGreedyCheaperThanExhaustive(t *testing.T) {
	tech := device.MustTech("90nm")
	sysA := buildAmp(tech)
	// Add a second dummy knob to blow up the exhaustive product space.
	dummyA := NewKnob("dummy", mathx.Linspace(0, 1, 6), func(float64) {})
	ctrlA, _ := NewController([]*Knob{sysA.knob, dummyA}, []Monitor{sysA.gain},
		[]variation.Spec{{Lo: 4, Hi: math.Inf(1)}}, Exhaustive)
	trA, err := ctrlA.Tune(sysA.circ)
	if err != nil {
		t.Fatal(err)
	}

	sysB := buildAmp(tech)
	dummyB := NewKnob("dummy", mathx.Linspace(0, 1, 6), func(float64) {})
	ctrlB, _ := NewController([]*Knob{sysB.knob, dummyB}, []Monitor{sysB.gain},
		[]variation.Spec{{Lo: 4, Hi: math.Inf(1)}}, Greedy)
	trB, err := ctrlB.Tune(sysB.circ)
	if err != nil {
		t.Fatal(err)
	}
	if !trA.InSpec || !trB.InSpec {
		t.Fatal("both policies should find a valid configuration")
	}
	if trB.Evaluations >= trA.Evaluations {
		t.Errorf("greedy used %d evals, exhaustive %d — expected fewer", trB.Evaluations, trA.Evaluations)
	}
}

func TestAdaptiveOutlivesStatic(t *testing.T) {
	tech := device.MustTech("65nm")
	const year = 365.25 * 24 * 3600
	checkpoints := mathx.Logspace(1e5, 30*year, 14)
	gainSpec := variation.Spec{Name: "gain", Lo: 5.0, Hi: math.Inf(1)}

	run := func(adaptive bool) *MissionResult {
		sys := buildAmp(tech)
		ctrl, err := NewController([]*Knob{sys.knob}, []Monitor{sys.gain},
			[]variation.Spec{gainSpec}, Exhaustive)
		if err != nil {
			t.Fatal(err)
		}
		// Static design: tuned once at t=0 (like a well-designed fresh
		// chip), then left alone.
		if _, err := ctrl.Tune(sys.circ); err != nil {
			t.Fatal(err)
		}
		ager := aging.NewCircuitAger(sys.circ,
			aging.Models{NBTI: aging.DefaultNBTI(), HCI: aging.DefaultHCI()}, 400, 99)
		res, err := RunMission(ager, ctrl, checkpoints, adaptive)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	static := run(false)
	adaptive := run(true)
	ttfS := static.TimeToFailure()
	ttfA := adaptive.TimeToFailure()
	if !(ttfA > ttfS) {
		t.Errorf("adaptive TTF %g should exceed static %g", ttfA, ttfS)
	}
	if adaptive.SurvivedCheckpoints() <= static.SurvivedCheckpoints() {
		t.Errorf("adaptive survived %d checkpoints, static %d",
			adaptive.SurvivedCheckpoints(), static.SurvivedCheckpoints())
	}
	// The adaptive run must actually have moved a knob at some point.
	moved := false
	first := adaptive.Points[0].KnobIndices[0]
	for _, p := range adaptive.Points[1:] {
		if len(p.KnobIndices) > 0 && p.KnobIndices[0] != first {
			moved = true
		}
	}
	if !moved {
		t.Error("adaptive controller never moved the knob")
	}
}

func TestRunMissionValidation(t *testing.T) {
	tech := device.MustTech("90nm")
	sys := buildAmp(tech)
	ctrl, _ := NewController([]*Knob{sys.knob}, []Monitor{sys.gain},
		[]variation.Spec{{Lo: 0, Hi: math.Inf(1)}}, Greedy)
	ager := aging.NewCircuitAger(sys.circ, aging.DefaultModels(), 350, 1)
	if _, err := RunMission(ager, ctrl, nil, true); err == nil {
		t.Error("empty checkpoints accepted")
	}
	if _, err := RunMission(ager, ctrl, []float64{5, 2}, true); err == nil {
		t.Error("decreasing checkpoints accepted")
	}
}

func TestMissionResultHelpers(t *testing.T) {
	r := &MissionResult{Points: []MissionPoint{
		{Time: 0, InSpec: true},
		{Time: 10, InSpec: true},
		{Time: 20, InSpec: false},
	}}
	if r.TimeToFailure() != 20 {
		t.Errorf("TTF = %g", r.TimeToFailure())
	}
	if r.SurvivedCheckpoints() != 2 {
		t.Errorf("survived = %d", r.SurvivedCheckpoints())
	}
	all := &MissionResult{Points: []MissionPoint{{Time: 0, InSpec: true}}}
	if !math.IsInf(all.TimeToFailure(), 1) {
		t.Error("survivor TTF must be +Inf")
	}
}

func TestSupplyCurrentMonitor(t *testing.T) {
	tech := device.MustTech("90nm")
	sys := buildAmp(tech)
	mon := SupplyCurrentMonitor("idd", "VDD")
	i, err := mon.Measure(sys.circ)
	if err != nil {
		t.Fatal(err)
	}
	if i <= 0 || i > 1e-2 {
		t.Errorf("supply current %g implausible", i)
	}
}

func TestOPVoltageMonitor(t *testing.T) {
	tech := device.MustTech("90nm")
	sys := buildAmp(tech)
	mon := OPVoltageMonitor("vd", "d")
	v, err := mon.Measure(sys.circ)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 || v >= tech.VDD {
		t.Errorf("drain voltage %g outside rails", v)
	}
}
