package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/aging"
	"repro/internal/circuit"
)

// TestNaNMetricExcludedFromMomentsButCountedInYield pins the NaN
// accounting contract on the reliability-simulator path: a die whose
// metric measures NaN is a measured reject — it stays in the yield
// denominator (it failed its spec) but out of the moment summary, which
// would otherwise be poisoned to NaN mean/σ for every surviving die at
// the checkpoint. Mirrors variation.MCStats.Yield.
func TestNaNMetricExcludedFromMomentsButCountedInYield(t *testing.T) {
	const trials = 40
	s := ampSim("90nm", 17)
	s.Models = aging.Models{}
	// Make the measurement undefined for roughly half the dies: mismatch
	// scatters V(d) around its nominal value, and dies above it go NaN.
	base, _ := s.Build()
	sol, _ := base.OperatingPoint()
	vnom := sol.Voltage("d")
	inner := s.Metrics[0].Measure
	s.Metrics[0].Measure = func(c *circuit.Circuit) (float64, error) {
		v, err := inner(c)
		if err != nil {
			return 0, err
		}
		if v > vnom {
			return math.NaN(), nil
		}
		return v, nil
	}
	res, err := s.RunCtx(context.Background(), trials, Mission{Duration: year, TempK: 350, Checkpoints: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d trial errors, want a clean run", res.Errors)
	}
	st := res.MetricStats[0][0]
	if st.Count == 0 || st.Count == trials {
		t.Fatalf("finite-die count = %d of %d: the NaN split did not bite", st.Count, trials)
	}
	if math.IsNaN(st.Mean) || math.IsNaN(st.MeanValue()) {
		t.Error("NaN die poisoned the moment summary")
	}
	// Every NaN die still reached a verdict: full denominator, and a NaN
	// can never pass a spec window.
	y := res.YieldAt(0)
	if y.Total != trials {
		t.Errorf("yield denominator = %d, want all %d measured dies", y.Total, trials)
	}
	if y.Pass > int(st.Count) {
		t.Errorf("passes (%d) exceed finite dies (%d): a NaN passed the spec", y.Pass, st.Count)
	}
}
