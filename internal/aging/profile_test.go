package aging

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
)

// pmosVehicle is a degradation-sensitive diode-connected pMOS stage.
func pmosVehicle(tech *device.Technology) *circuit.Circuit {
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
	c.AddMOSFET("M1", "d", "d", "vdd", "vdd",
		device.NewMosfet(tech.PMOSParams(4e-6, 2*tech.Lmin, 300)))
	c.AddResistor("RD", "d", "0", 20e3)
	return c
}

func finalShift(t *testing.T, phases []MissionPhase) float64 {
	t.Helper()
	tech := device.MustTech("65nm")
	c := pmosVehicle(tech)
	ager := NewCircuitAger(c, Models{NBTI: DefaultNBTI()}, 300, 1)
	if _, err := ager.AgeProfile(phases); err != nil {
		t.Fatal(err)
	}
	return c.MOSFETList()[0].Dev.Damage.DeltaVT
}

func TestAgeProfileHotPhaseAgesMore(t *testing.T) {
	const year = 365.25 * 24 * 3600
	allCold := finalShift(t, []MissionPhase{{Duration: year, TempK: 310, Checkpoints: 4}})
	halfHot := finalShift(t, []MissionPhase{
		{Duration: year / 2, TempK: 310, Checkpoints: 2},
		{Duration: year / 2, TempK: 400, Checkpoints: 2},
	})
	allHot := finalShift(t, []MissionPhase{{Duration: year, TempK: 400, Checkpoints: 4}})
	if !(allCold < halfHot && halfHot < allHot) {
		t.Errorf("profile ordering wrong: cold %g, mixed %g, hot %g", allCold, halfHot, allHot)
	}
}

func TestAgeProfileDutyPerPhase(t *testing.T) {
	const year = 365.25 * 24 * 3600
	idlePhase := finalShift(t, []MissionPhase{
		{Duration: year, TempK: 380, Checkpoints: 2, Duty: map[string]float64{"M1": 0.05}},
	})
	activePhase := finalShift(t, []MissionPhase{
		{Duration: year, TempK: 380, Checkpoints: 2},
	})
	if idlePhase >= activePhase {
		t.Errorf("5%% duty phase should age less: %g >= %g", idlePhase, activePhase)
	}
}

func TestAgeProfileRestoresAgerSettings(t *testing.T) {
	tech := device.MustTech("65nm")
	c := pmosVehicle(tech)
	ager := NewCircuitAger(c, Models{NBTI: DefaultNBTI()}, 333, 1)
	ager.DutyOverride = map[string]float64{"M1": 0.7}
	if _, err := ager.AgeProfile([]MissionPhase{
		{Duration: 1e6, TempK: 400, Checkpoints: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if ager.TempK != 333 || ager.DutyOverride["M1"] != 0.7 {
		t.Error("profile run clobbered the ager's settings")
	}
}

func TestAgeProfileValidation(t *testing.T) {
	tech := device.MustTech("65nm")
	ager := NewCircuitAger(pmosVehicle(tech), DefaultModels(), 300, 1)
	cases := [][]MissionPhase{
		nil,
		{{Duration: -1, TempK: 300, Checkpoints: 1}},
		{{Duration: 1, TempK: 0, Checkpoints: 1}},
		{{Duration: 1, TempK: 300, Checkpoints: 0}},
	}
	for i, phases := range cases {
		if _, err := ager.AgeProfile(phases); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestAgeProfileTrajectoryTimes(t *testing.T) {
	tech := device.MustTech("65nm")
	ager := NewCircuitAger(pmosVehicle(tech), Models{NBTI: DefaultNBTI()}, 300, 1)
	traj, err := ager.AgeProfile([]MissionPhase{
		{Duration: 100, TempK: 350, Checkpoints: 2},
		{Duration: 300, TempK: 400, Checkpoints: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 50, 100, 200, 300, 400}
	if len(traj) != len(want) {
		t.Fatalf("trajectory has %d points, want %d", len(traj), len(want))
	}
	for i, w := range want {
		if traj[i].Time != w {
			t.Errorf("time[%d] = %g, want %g", i, traj[i].Time, w)
		}
	}
}
