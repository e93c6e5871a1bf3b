package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/variation"
)

// YieldAt returns the yield estimate nearest to time t, or a zero
// YieldEstimate when the result holds no checkpoints (every trial failed
// or was cancelled).
func (r *Result) YieldAt(t float64) variation.YieldEstimate {
	if len(r.Yield) == 0 {
		return variation.YieldEstimate{}
	}
	best, dist := 0, math.Inf(1)
	for i, tt := range r.Times {
		if d := math.Abs(tt - t); d < dist {
			best, dist = i, d
		}
	}
	return r.Yield[best]
}

const year = 365.25 * 24 * 3600

// ampSim builds a Simulator around a PMOS common-source stage: the bias
// current (and hence the output voltage across RD) collapses as NBTI
// raises |VT|, making it a sensitive reliability vehicle. Ratiometric
// circuits like current mirrors cancel common aging to first order; this
// one deliberately does not.
func ampSim(techName string, seed uint64) *Simulator {
	tech := device.MustTech(techName)
	build := func() (*circuit.Circuit, error) {
		c := circuit.New()
		c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
		c.AddVSource("VG", "g", "0", circuit.DC(tech.VDD-0.45))
		m := device.NewMosfet(tech.PMOSParams(4e-6, 2*tech.Lmin, 300))
		c.AddMOSFET("M1", "d", "g", "vdd", "vdd", m)
		c.AddResistor("RD", "d", "0", 20e3)
		return c, nil
	}
	// Fresh nominal output voltage (used to centre the spec).
	c, _ := build()
	sol, _ := c.OperatingPoint()
	vnom := sol.Voltage("d")

	return &Simulator{
		Build:  build,
		Tech:   tech,
		Models: aging.Models{NBTI: aging.DefaultNBTI(), HCI: aging.DefaultHCI()},
		Metrics: []Metric{{
			Name: "vout",
			Measure: func(c *circuit.Circuit) (float64, error) {
				sol, err := c.OperatingPoint()
				if err != nil {
					return 0, err
				}
				return sol.Voltage("d"), nil
			},
			Spec: variation.Spec{Name: "vout", Lo: 0.85 * vnom, Hi: 1.15 * vnom},
		}},
		Seed: seed,
	}
}

func TestRunValidation(t *testing.T) {
	s := ampSim("90nm", 1)
	mission := Mission{Duration: year, TempK: 350, Checkpoints: 3}
	if _, err := s.RunCtx(context.Background(), 0, mission); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := s.RunCtx(context.Background(), 4, Mission{Duration: -1, TempK: 350, Checkpoints: 3}); err == nil {
		t.Error("negative duration accepted")
	}
	if _, err := s.RunCtx(context.Background(), 4, Mission{Duration: 1, TempK: 0, Checkpoints: 3}); err == nil {
		t.Error("zero temperature accepted")
	}
	bad := *s
	bad.Metrics = nil
	if _, err := bad.RunCtx(context.Background(), 4, mission); err == nil {
		t.Error("no metrics accepted")
	}
}

func TestYieldDecaysOverLife(t *testing.T) {
	s := ampSim("65nm", 7)
	res, err := s.RunCtx(context.Background(), 60, Mission{Duration: 20 * year, TempK: 400, Checkpoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 5 {
		t.Fatalf("%d/60 trials errored", res.Errors)
	}
	y0 := res.Yield[0].Yield
	yEnd := res.Yield[len(res.Yield)-1].Yield
	if y0 < 0.8 {
		t.Errorf("time-zero yield %g too low — mismatch spec miscentred?", y0)
	}
	if yEnd >= y0 {
		t.Errorf("yield should decay with age: %g -> %g", y0, yEnd)
	}
	// Yield must be monotone non-increasing within statistical identity
	// (same trials, failure latches at first violation in FailureTimes,
	// though per-checkpoint spec checks may flicker; allow small slack).
	for k := 1; k < len(res.Yield); k++ {
		if res.Yield[k].Yield > res.Yield[k-1].Yield+0.1 {
			t.Errorf("yield jumped up at checkpoint %d: %g -> %g",
				k, res.Yield[k-1].Yield, res.Yield[k].Yield)
		}
	}
	if len(res.FailureTimes) == 0 {
		t.Fatal("no failure times recorded")
	}
	if got := len(res.FailureTimes) + res.Errors; got != 60 {
		t.Errorf("failure times + errors = %d, want 60", got)
	}
}

func TestRunDeterministic(t *testing.T) {
	mission := Mission{Duration: 5 * year, TempK: 380, Checkpoints: 4}
	a, err := ampSim("90nm", 42).RunCtx(context.Background(), 24, mission)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ampSim("90nm", 42).RunCtx(context.Background(), 24, mission)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Yield {
		if a.Yield[k] != b.Yield[k] {
			t.Fatalf("yield differs at checkpoint %d", k)
		}
	}
	for i := range a.FailureTimes {
		if a.FailureTimes[i] != b.FailureTimes[i] {
			t.Fatal("failure times differ between identical runs")
		}
	}
	c, err := ampSim("90nm", 43).RunCtx(context.Background(), 24, mission)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for k := range a.Yield {
		if a.Yield[k] != c.Yield[k] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical yield trajectories")
	}
}

func TestMissionCheckpointSpacing(t *testing.T) {
	logM := Mission{Duration: 1e8, TempK: 300, Checkpoints: 5}
	lin := Mission{Duration: 1e8, TempK: 300, Checkpoints: 5, LinearTime: true}
	lt := logM.CheckpointTimes()
	nt := lin.CheckpointTimes()
	if len(lt) != 5 || len(nt) != 5 {
		t.Fatal("wrong checkpoint counts")
	}
	// Log spacing: constant ratio; linear: constant difference.
	r1 := lt[1] / lt[0]
	r2 := lt[2] / lt[1]
	if math.Abs(r1-r2) > 1e-9*r1 {
		t.Error("log spacing not geometric")
	}
	d1 := nt[1] - nt[0]
	d2 := nt[2] - nt[1]
	if math.Abs(d1-d2) > 1e-6 {
		t.Error("linear spacing not arithmetic")
	}
	if nt[4] != 1e8 || math.Abs(lt[4]-1e8) > 1 {
		t.Error("last checkpoint must hit the mission end")
	}
}

func TestMedianTTFAndYieldAt(t *testing.T) {
	r := &Result{
		Times: []float64{0, 10, 100},
		Yield: []variation.YieldEstimate{
			variation.YieldFromCounts(10, 10),
			variation.YieldFromCounts(5, 10),
			variation.YieldFromCounts(1, 10),
		},
		FailureTimes: []float64{10, 10, 100, math.Inf(1), math.Inf(1)},
	}
	if r.MedianTTF() != 100 {
		t.Errorf("median TTF = %g", r.MedianTTF())
	}
	if r.YieldAt(9).Pass != 5 {
		t.Error("YieldAt picked the wrong checkpoint")
	}
	if r.YieldAt(1e6).Pass != 1 {
		t.Error("YieldAt must clamp to the last checkpoint")
	}
	empty := &Result{}
	if !math.IsInf(empty.MedianTTF(), 1) {
		t.Error("empty result must report infinite TTF")
	}
}

func TestVariabilityOnlyRun(t *testing.T) {
	// With aging disabled (zero Models), yield must stay flat over time.
	s := ampSim("90nm", 5)
	s.Models = aging.Models{}
	res, err := s.RunCtx(context.Background(), 40, Mission{Duration: 10 * year, TempK: 400, Checkpoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Yield[0]
	for k, y := range res.Yield {
		if y != first {
			t.Errorf("yield changed at checkpoint %d without aging: %v vs %v", k, y, first)
		}
	}
}

func TestGlobalCornerWidensSpread(t *testing.T) {
	mission := Mission{Duration: year, TempK: 350, Checkpoints: 2}
	local := ampSim("90nm", 9)
	local.Models = aging.Models{}
	resLocal, err := local.RunCtx(context.Background(), 50, mission)
	if err != nil {
		t.Fatal(err)
	}
	global := ampSim("90nm", 9)
	global.Models = aging.Models{}
	global.GlobalSigmaVT = 0.05
	resGlobal, err := global.RunCtx(context.Background(), 50, mission)
	if err != nil {
		t.Fatal(err)
	}
	if resGlobal.Yield[0].Yield >= resLocal.Yield[0].Yield {
		t.Errorf("die-to-die corners should cost yield: %v vs %v",
			resGlobal.Yield[0], resLocal.Yield[0])
	}
}
