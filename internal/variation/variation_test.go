package variation

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
)

func TestSamplePairMatchesEq1(t *testing.T) {
	tech := device.MustTech("180nm")
	rng := mathx.NewRNG(1)
	w, l, d := 2e-6, 0.5e-6, 10e-6
	var run mathx.Running
	for i := 0; i < 100000; i++ {
		run.Add(SamplePairDeltaVT(tech, w, l, d, rng))
	}
	want := tech.SigmaVT(w, l, d)
	if !mathx.ApproxEqual(run.StdDev(), want, 0.02, 0) {
		t.Errorf("sampled σ = %g, Eq. 1 says %g", run.StdDev(), want)
	}
	if math.Abs(run.Mean()) > want/50 {
		t.Errorf("mismatch mean %g not ~0", run.Mean())
	}
}

func TestSingleDeviceSigmaIsPairOverSqrt2(t *testing.T) {
	tech := device.MustTech("90nm")
	rng := mathx.NewRNG(2)
	w, l := 1e-6, 0.1e-6
	var run mathx.Running
	for i := 0; i < 100000; i++ {
		run.Add(SampleMismatch(tech, w, l, rng).DeltaVT0)
	}
	want := tech.SigmaVT(w, l, 0) / math.Sqrt2
	if !mathx.ApproxEqual(run.StdDev(), want, 0.02, 0) {
		t.Errorf("single-device σ = %g, want %g", run.StdDev(), want)
	}
	// The difference of two independent single-device samples must
	// reproduce the pair sigma.
	rng2 := mathx.NewRNG(3)
	var diff mathx.Running
	for i := 0; i < 100000; i++ {
		a := SampleMismatch(tech, w, l, rng2).DeltaVT0
		b := SampleMismatch(tech, w, l, rng2).DeltaVT0
		diff.Add(a - b)
	}
	if !mathx.ApproxEqual(diff.StdDev(), tech.SigmaVT(w, l, 0), 0.02, 0) {
		t.Errorf("pair reconstruction σ = %g, want %g", diff.StdDev(), tech.SigmaVT(w, l, 0))
	}
}

func TestLERGrowsWithScaling(t *testing.T) {
	oldTech := device.MustTech("180nm")
	newTech := device.MustTech("45nm")
	w := 0.5e-6
	if LERSigmaVT(newTech, w) <= LERSigmaVT(oldTech, w) {
		t.Error("LER should worsen with scaling")
	}
	// Wider devices average LER down as 1/sqrt(W).
	s1 := LERSigmaVT(newTech, 0.25e-6)
	s2 := LERSigmaVT(newTech, 1e-6)
	if !mathx.ApproxEqual(s1/s2, 2, 1e-9, 0) {
		t.Errorf("LER width scaling ratio = %g, want 2", s1/s2)
	}
}

func TestApplyRandomMismatch(t *testing.T) {
	tech := device.MustTech("65nm")
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(1.1))
	for _, nm := range []string{"M1", "M2", "M3"} {
		c.AddMOSFET(nm, "vdd", "vdd", "0", "0", device.NewMosfet(tech.NMOSParams(1e-6, 65e-9, 300)))
	}
	rng := mathx.NewRNG(7)
	corner := GlobalCorner{DeltaVT0: 0.05, BetaFactor: 0.9}
	ApplyRandomMismatch(c, tech, corner, rng)
	seen := map[float64]bool{}
	for _, m := range c.MOSFETs() {
		dv := m.Dev.Mismatch.DeltaVT0
		if seen[dv] {
			t.Error("two devices got identical mismatch — RNG reuse?")
		}
		seen[dv] = true
		// The global corner must dominate the local sigma here (50 mV vs
		// ~2 mV), so all shifts should be clearly positive.
		if dv < 0.02 {
			t.Errorf("corner not applied: DeltaVT0 = %g", dv)
		}
		if m.Dev.Mismatch.BetaFactor > 1.0 {
			t.Errorf("corner beta not applied: %g", m.Dev.Mismatch.BetaFactor)
		}
	}
	ResetMismatch(c)
	for _, m := range c.MOSFETs() {
		if m.Dev.Mismatch != device.NominalMismatch() {
			t.Error("ResetMismatch did not restore nominal")
		}
	}
}

func TestMonteCarloDeterministicAcrossRuns(t *testing.T) {
	trial := func(rng *mathx.RNG, i int) (float64, error) {
		return rng.Norm() + float64(i)*1e-9, nil
	}
	a, err := MonteCarloCtx(context.Background(), 500, 42, trial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarloCtx(context.Background(), 500, 42, trial)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("trial %d differs across runs", i)
		}
	}
	c, _ := MonteCarloCtx(context.Background(), 500, 43, trial)
	same := 0
	for i := range a.Values {
		if a.Values[i] == c.Values[i] {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different seeds produced %d/500 identical values", same)
	}
}

func TestMonteCarloCountsFailures(t *testing.T) {
	res, err := MonteCarloCtx(context.Background(), 100, 1, func(rng *mathx.RNG, i int) (float64, error) {
		if i%10 == 0 {
			return 0, errors.New("boom")
		}
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 10 || len(res.Values) != 90 {
		t.Errorf("failures = %d, values = %d", res.Failures, len(res.Values))
	}
	if res.NaNs != 0 {
		t.Errorf("error trials must not count as NaNs, got %d", res.NaNs)
	}
}

func TestMonteCarloRejectsBadN(t *testing.T) {
	if _, err := MonteCarloCtx(context.Background(), 0, 1, func(*mathx.RNG, int) (float64, error) { return 0, nil }); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestMonteCarloNaNCountedSeparately(t *testing.T) {
	res, err := MonteCarloCtx(context.Background(), 10, 1, func(rng *mathx.RNG, i int) (float64, error) {
		return math.NaN(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NaNs != 10 || res.Failures != 0 {
		t.Errorf("NaN results should count as NaNs, got NaNs=%d failures=%d", res.NaNs, res.Failures)
	}
	if len(res.Values) != 0 {
		t.Errorf("NaN results must not enter Values, got %d", len(res.Values))
	}
}

func TestMonteCarloMixedNaNAndErrorTrials(t *testing.T) {
	res, err := MonteCarloCtx(context.Background(), 30, 1, func(rng *mathx.RNG, i int) (float64, error) {
		switch i % 3 {
		case 0:
			return 0, errors.New("solver blew up")
		case 1:
			return math.NaN(), nil
		}
		return float64(i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 10 || res.NaNs != 10 || len(res.Values) != 10 {
		t.Errorf("failures=%d NaNs=%d values=%d, want 10/10/10",
			res.Failures, res.NaNs, len(res.Values))
	}
}

func TestMonteCarloStatisticsConverge(t *testing.T) {
	res, err := MonteCarloCtx(context.Background(), 200000, 5, func(rng *mathx.RNG, _ int) (float64, error) {
		return 3 + 2*rng.Norm(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.ApproxEqual(res.Mean(), 3, 0.01, 0) {
		t.Errorf("mean = %g", res.Mean())
	}
	if !mathx.ApproxEqual(res.StdDev(), 2, 0.02, 0) {
		t.Errorf("std = %g", res.StdDev())
	}
	if med := mathx.Quantile(res.Values, 0.5); !mathx.ApproxEqual(med, 3, 0.02, 0) {
		t.Errorf("median = %g", med)
	}
}

func TestSpecPass(t *testing.T) {
	s := Spec{Name: "gain", Lo: 10, Hi: 20}
	if !s.Pass(15) || s.Pass(9) || s.Pass(21) {
		t.Error("Spec.Pass broken")
	}
	open := Spec{Name: "inl", Lo: math.Inf(-1), Hi: 0.5}
	if !open.Pass(-100) || open.Pass(0.6) {
		t.Error("one-sided spec broken")
	}
}

func TestYieldEstimate(t *testing.T) {
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i) // 0..99
	}
	y := EstimateYield(values, Spec{Lo: 0, Hi: 49})
	if y.Pass != 50 || y.Total != 100 {
		t.Fatalf("pass=%d total=%d", y.Pass, y.Total)
	}
	if !mathx.ApproxEqual(y.Yield, 0.5, 1e-12, 0) {
		t.Errorf("yield = %g", y.Yield)
	}
	if y.Lo95 >= 0.5 || y.Hi95 <= 0.5 {
		t.Errorf("CI [%g, %g] must straddle 0.5", y.Lo95, y.Hi95)
	}
	if y.Hi95-y.Lo95 > 0.25 {
		t.Errorf("CI width %g too wide for n=100", y.Hi95-y.Lo95)
	}
}

func TestYieldCIProperty(t *testing.T) {
	// The Wilson interval is always inside [0, 1] and contains the point
	// estimate.
	if err := quick.Check(func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		total := 1 + r.Intn(1000)
		pass := r.Intn(total + 1)
		y := YieldFromCounts(pass, total)
		return y.Lo95 >= 0 && y.Hi95 <= 1 && y.Lo95 <= y.Yield+1e-12 && y.Hi95 >= y.Yield-1e-12
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestYieldFromZeroTotal(t *testing.T) {
	y := YieldFromCounts(0, 0)
	if y.Yield != 0 || y.Lo95 != 0 || y.Hi95 != 0 {
		t.Error("zero-total yield should be all zeros")
	}
}

func TestGlobalCornerSampling(t *testing.T) {
	rng := mathx.NewRNG(11)
	var vts, betas mathx.Running
	for i := 0; i < 50000; i++ {
		c := SampleGlobalCorner(0.03, 0.05, rng)
		vts.Add(c.DeltaVT0)
		betas.Add(c.BetaFactor)
	}
	if !mathx.ApproxEqual(vts.StdDev(), 0.03, 0.05, 0) {
		t.Errorf("corner VT σ = %g", vts.StdDev())
	}
	if !mathx.ApproxEqual(betas.Mean(), 1, 0.01, 0) {
		t.Errorf("corner beta mean = %g", betas.Mean())
	}
}
