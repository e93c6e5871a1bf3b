package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/mathx"
)

func TestHazardFlatForExponential(t *testing.T) {
	// Constant-hazard (exponential) failures: the life-table estimate must
	// be flat at λ = 1/mean.
	rng := mathx.NewRNG(1)
	const lambda = 1e-3
	times := make([]float64, 50000)
	for i := range times {
		times[i] = rng.Exp() / lambda
	}
	// Keep λ·binWidth small: the life-table estimator reads
	// (1−e^{−λw})/w, which undershoots λ for coarse bins.
	edges := mathx.Linspace(0, 600, 7)
	h, err := EstimateHazard(times, edges)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range h.Rate {
		if math.IsNaN(r) {
			t.Fatalf("bin %d has no at-risk units", i)
		}
		if !mathx.ApproxEqual(r, lambda, 0.1, 0) {
			t.Errorf("bin %d hazard %g, want ~%g", i, r, lambda)
		}
	}
}

func TestHazardRisingForWeibullWearOut(t *testing.T) {
	// β > 1 Weibull (wear-out) must show a rising hazard.
	rng := mathx.NewRNG(2)
	w := mathx.NewWeibull(3, 1000)
	times := make([]float64, 50000)
	for i := range times {
		times[i] = w.Sample(rng)
	}
	edges := mathx.Linspace(0, 1500, 6)
	h, err := EstimateHazard(times, edges)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(h.Rate); i++ {
		if math.IsNaN(h.Rate[i]) {
			continue
		}
		if h.Rate[i] <= h.Rate[i-1] {
			t.Errorf("hazard not rising at bin %d: %g <= %g", i, h.Rate[i], h.Rate[i-1])
		}
	}
	// Onset detection: the threshold crossed somewhere inside the range.
	onset := h.WearOutOnset(h.Rate[len(h.Rate)-1] / 2)
	if math.IsInf(onset, 1) || onset == 0 {
		t.Errorf("wear-out onset %g not detected mid-range", onset)
	}
}

func TestHazardSurvivorsStayAtRisk(t *testing.T) {
	times := []float64{10, 20, math.Inf(1), math.Inf(1)}
	h, err := EstimateHazard(times, []float64{0, 15, 30})
	if err != nil {
		t.Fatal(err)
	}
	if h.AtRisk[0] != 4 || h.Failures[0] != 1 {
		t.Errorf("bin 0: atRisk=%d fails=%d", h.AtRisk[0], h.Failures[0])
	}
	if h.AtRisk[1] != 3 || h.Failures[1] != 1 {
		t.Errorf("bin 1: atRisk=%d fails=%d", h.AtRisk[1], h.Failures[1])
	}
}

func TestHazardValidation(t *testing.T) {
	if _, err := EstimateHazard([]float64{1}, []float64{0}); err == nil {
		t.Error("single edge accepted")
	}
	if _, err := EstimateHazard([]float64{1}, []float64{5, 2}); err == nil {
		t.Error("decreasing edges accepted")
	}
}

func TestHazardOnReliabilityRun(t *testing.T) {
	// End-to-end: the PMOS amp Monte-Carlo failure times show wear-out —
	// a hazard that rises toward end of life.
	s := ampSim("65nm", 21)
	res, err := s.RunCtx(context.Background(), 80, Mission{Duration: 20 * year, TempK: 400, Checkpoints: 10})
	if err != nil {
		t.Fatal(err)
	}
	h, err := EstimateHazard(res.FailureTimes, mathx.Logspace(1e4, 20*year, 6))
	if err != nil {
		t.Fatal(err)
	}
	// The last finite hazard must exceed the first (wear-out wall).
	var first, last float64 = math.NaN(), math.NaN()
	for _, r := range h.Rate {
		if !math.IsNaN(r) && r > 0 {
			if math.IsNaN(first) {
				first = r
			}
			last = r
		}
	}
	if math.IsNaN(first) || math.IsNaN(last) {
		t.Skip("no failures in range — mission too gentle for this seed")
	}
	if last < first {
		t.Errorf("hazard should rise into wear-out: first %g, last %g", first, last)
	}
}
