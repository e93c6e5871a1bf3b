package variation

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
)

func inverterCircuit(tech *device.Technology) *circuit.Circuit {
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
	c.AddVSource("VIN", "in", "0", circuit.DC(tech.VDD/2))
	c.AddMOSFET("MN", "out", "in", "0", "0",
		device.NewMosfet(tech.NMOSParams(1e-6, tech.Lmin, 300)))
	c.AddMOSFET("MP", "out", "in", "vdd", "vdd",
		device.NewMosfet(tech.PMOSParams(2e-6, tech.Lmin, 300)))
	return c
}

func switchPoint(c *circuit.Circuit) (float64, error) {
	sol, err := c.OperatingPoint()
	if err != nil {
		return 0, err
	}
	return sol.Voltage("out"), nil
}

func TestStandardCornersShape(t *testing.T) {
	cs := StandardCorners(0.03, 0.05)
	if len(cs) != 5 {
		t.Fatalf("got %d corners", len(cs))
	}
	byName := map[string]Corner{}
	for _, c := range cs {
		byName[c.Name] = c
	}
	if byName["TT"].DeltaVTN != 0 || byName["TT"].BetaN != 1 {
		t.Error("TT must be nominal")
	}
	if byName["SS"].DeltaVTN <= 0 || byName["FF"].DeltaVTN >= 0 {
		t.Error("SS slow / FF fast VT signs wrong")
	}
	if byName["SF"].DeltaVTN <= 0 || byName["SF"].DeltaVTP >= 0 {
		t.Error("SF must be slow-N fast-P")
	}
}

func TestCornerSkewMovesInverterOutput(t *testing.T) {
	// At mid-rail input, an SF corner (weak nMOS, strong pMOS) pulls the
	// inverter output up; FS pulls it down. TT sits between them.
	tech := device.MustTech("90nm")
	c := inverterCircuit(tech)
	vals, err := CornerSweep(c, StandardCorners(0.04, 0.08), switchPoint)
	if err != nil {
		t.Fatal(err)
	}
	if !(vals["SF"] > vals["TT"] && vals["TT"] > vals["FS"]) {
		t.Errorf("corner ordering wrong: SF=%g TT=%g FS=%g", vals["SF"], vals["TT"], vals["FS"])
	}
	// The symmetric corners move the output far less than the skewed ones.
	ssShift := abs64(vals["SS"] - vals["TT"])
	sfShift := abs64(vals["SF"] - vals["TT"])
	if ssShift >= sfShift {
		t.Errorf("skewed corner should dominate the ratioed metric: SS %g vs SF %g", ssShift, sfShift)
	}
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestCornerSweepResetsState(t *testing.T) {
	tech := device.MustTech("90nm")
	c := inverterCircuit(tech)
	if _, err := CornerSweep(c, StandardCorners(0.05, 0.05), switchPoint); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.MOSFETList() {
		if m.Dev.Mismatch != device.NominalMismatch() {
			t.Fatal("corner sweep left mismatch applied")
		}
	}
}

func TestStandardCornersPanicOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StandardCorners(-0.01, 0.05)
}
