package digital

import (
	"math"
	"testing"

	"repro/internal/aging"
	"repro/internal/device"
)

func TestBuildRingValidation(t *testing.T) {
	tech := device.MustTech("90nm")
	sz := DefaultInverter(tech)
	if _, err := BuildRingOscillator(tech, 4, sz, 1e-15); err == nil {
		t.Error("even stage count accepted")
	}
	if _, err := BuildRingOscillator(tech, 1, sz, 1e-15); err == nil {
		t.Error("single stage accepted")
	}
	if _, err := BuildRingOscillator(tech, 5, sz, 0); err == nil {
		t.Error("zero load accepted")
	}
}

func TestRingOscillates(t *testing.T) {
	tech := device.MustTech("90nm")
	ro, err := BuildRingOscillator(tech, 5, DefaultInverter(tech), 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ro.MeasureFrequency()
	if err != nil {
		t.Fatal(err)
	}
	if f < 1e8 || f > 1e11 {
		t.Errorf("ring frequency %g Hz implausible for 90 nm", f)
	}
	// The analytic estimate 1/(2·stages·tp) that seeds the measurement
	// window should be in the right ballpark (same decade).
	est := 1 / (2 * float64(ro.Stages) * ro.estimateDelay())
	ratio := f / est
	if ratio < 0.1 || ratio > 10 {
		t.Errorf("measured %g vs estimate %g: ratio %g out of band", f, est, ratio)
	}
}

func TestMoreStagesSlower(t *testing.T) {
	tech := device.MustTech("90nm")
	measure := func(stages int) float64 {
		ro, err := BuildRingOscillator(tech, stages, DefaultInverter(tech), 2e-15)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ro.MeasureFrequency()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f5 := measure(5)
	f9 := measure(9)
	if f9 >= f5 {
		t.Errorf("9-stage ring (%g) must be slower than 5-stage (%g)", f9, f5)
	}
	// Frequency ∝ 1/stages to first order.
	ratio := f5 / f9
	if ratio < 1.3 || ratio > 2.6 {
		t.Errorf("5→9 stage slowdown ×%g, expected ~1.8", ratio)
	}
}

func TestHeavierLoadSlower(t *testing.T) {
	tech := device.MustTech("90nm")
	measure := func(cl float64) float64 {
		ro, err := BuildRingOscillator(tech, 5, DefaultInverter(tech), cl)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ro.MeasureFrequency()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if measure(8e-15) >= measure(2e-15) {
		t.Error("quadrupled load must slow the ring")
	}
}

func TestPropagationDelay(t *testing.T) {
	tech := device.MustTech("90nm")
	tphl, tplh, err := PropagationDelay(tech, DefaultInverter(tech), 5e-15)
	if err != nil {
		t.Fatal(err)
	}
	if tphl <= 0 || tplh <= 0 {
		t.Fatal("delays must be positive")
	}
	if tphl > 1e-9 || tplh > 1e-9 {
		t.Errorf("delays %g/%g implausibly slow for 90 nm", tphl, tplh)
	}
}

func TestDelayGrowsWithLoad(t *testing.T) {
	tech := device.MustTech("90nm")
	sz := DefaultInverter(tech)
	h1, l1, err := PropagationDelay(tech, sz, 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	h2, l2, err := PropagationDelay(tech, sz, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	if h2 <= h1 || l2 <= l1 {
		t.Errorf("delay must grow with load: %g->%g, %g->%g", h1, h2, l1, l2)
	}
}

func TestAgedRingSlowsDown(t *testing.T) {
	tech := device.MustTech("65nm")
	ro, err := BuildRingOscillator(tech, 5, DefaultInverter(tech), 2e-15)
	if err != nil {
		t.Fatal(err)
	}
	const tenYears = 10 * 365.25 * 24 * 3600
	res, err := AgeRing(ro, tenYears, 400,
		aging.Models{NBTI: aging.DefaultNBTI(), HCI: aging.DefaultHCI()}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.AgedHz >= res.FreshHz {
		t.Errorf("aged ring must be slower: %g >= %g", res.AgedHz, res.FreshHz)
	}
	if res.SlowdownPct < 0.5 || res.SlowdownPct > 50 {
		t.Errorf("10-year slowdown %.2f%% outside the plausible band", res.SlowdownPct)
	}
	if res.WorstDeltaVT <= 0 {
		t.Error("no threshold shift recorded")
	}
}

func TestAgeRingDeterministic(t *testing.T) {
	tech := device.MustTech("65nm")
	run := func() float64 {
		ro, err := BuildRingOscillator(tech, 5, DefaultInverter(tech), 2e-15)
		if err != nil {
			t.Fatal(err)
		}
		res, err := AgeRing(ro, 1e8, 380, aging.Models{NBTI: aging.DefaultNBTI()}, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res.AgedHz
	}
	if run() != run() {
		t.Error("ring aging not reproducible")
	}
}

func TestFirstAfter(t *testing.T) {
	xs := []float64{1, 3, 5}
	if firstAfter(xs, 2) != 3 || firstAfter(xs, 1) != 1 {
		t.Error("firstAfter broken")
	}
	if v := firstAfter(xs, 9); !math.IsNaN(v) {
		t.Error("expected NaN when no crossing follows")
	}
}
