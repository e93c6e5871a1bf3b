package variation

import (
	"context"
	"errors"
	"math"
	"reflect"
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
	c.AddMOSFET("MP", "0", "0", "vdd", "vdd", device.NewMosfet(tech.PMOSParams(1e-6, 65e-9, 300)))
	rng := mathx.NewRNG(7)
	// Slow n, fast p: each polarity takes its own shift.
	corner := Corner{DeltaVTN: 0.05, DeltaVTP: -0.05, BetaN: 0.9, BetaP: 1.1}
	ApplyRandomMismatch(c, tech, corner, rng)
	seen := map[float64]bool{}
	for _, m := range c.MOSFETList() {
		dv, beta := m.Dev.Mismatch.DeltaVT0, m.Dev.Mismatch.BetaFactor
		if seen[dv] {
			t.Error("two devices got identical mismatch — RNG reuse?")
		}
		seen[dv] = true
		// The corner must dominate the local sigma here (50 mV vs ~2 mV),
		// so every shift should clearly carry its polarity's sign.
		if m.Dev.Params.Type == device.PMOS {
			if dv > -0.02 || beta < 1.0 {
				t.Errorf("%s: p corner not applied: DeltaVT0 = %g, BetaFactor = %g", m.Name(), dv, beta)
			}
		} else if dv < 0.02 || beta > 1.0 {
			t.Errorf("%s: n corner not applied: DeltaVT0 = %g, BetaFactor = %g", m.Name(), dv, beta)
		}
	}
	ResetMismatch(c)
	for _, m := range c.MOSFETList() {
		if m.Dev.Mismatch != device.NominalMismatch() {
			t.Error("ResetMismatch did not restore nominal")
		}
	}
}

func TestMonteCarloDeterministicAcrossRuns(t *testing.T) {
	// run returns the per-trial values, recorded by the trial itself, and
	// the run's Stats.
	run := func(seed uint64) ([]float64, *MCStats) {
		vals := make([]float64, 500)
		res, err := runCampaign(context.Background(), len(vals), seed, func(rng *mathx.RNG, i int) (float64, error) {
			vals[i] = rng.Norm() + float64(i)*1e-9
			return vals[i], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return vals, res.Stats
	}
	a, sa := run(42)
	b, sb := run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d differs across runs", i)
		}
	}
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("stats differ across runs")
	}
	c, _ := run(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different seeds produced %d/500 identical values", same)
	}
}

func TestMonteCarloCountsFailures(t *testing.T) {
	res, err := runCampaign(context.Background(), 100, 1, func(rng *mathx.RNG, i int) (float64, error) {
		if i%10 == 0 {
			return 0, errors.New("boom")
		}
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 10 || res.Stats.Moments.Count != 90 {
		t.Errorf("failures = %d, values = %d", res.Failures, res.Stats.Moments.Count)
	}
	if res.NaNs != 0 {
		t.Errorf("error trials must not count as NaNs, got %d", res.NaNs)
	}
}

func TestMonteCarloRejectsBadN(t *testing.T) {
	if _, err := runCampaign(context.Background(), 0, 1, func(*mathx.RNG, int) (float64, error) { return 0, nil }); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestMonteCarloNaNCountedSeparately(t *testing.T) {
	res, err := runCampaign(context.Background(), 10, 1, func(rng *mathx.RNG, i int) (float64, error) {
		return math.NaN(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NaNs != 10 || res.Failures != 0 {
		t.Errorf("NaN results should count as NaNs, got NaNs=%d failures=%d", res.NaNs, res.Failures)
	}
	if res.Stats.Moments.Count != 0 {
		t.Errorf("NaN results must not enter the moments, got %d", res.Stats.Moments.Count)
	}
}

func TestMonteCarloMixedNaNAndErrorTrials(t *testing.T) {
	res, err := runCampaign(context.Background(), 30, 1, func(rng *mathx.RNG, i int) (float64, error) {
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
	if res.Failures != 10 || res.NaNs != 10 || res.Stats.Moments.Count != 10 {
		t.Errorf("failures=%d NaNs=%d values=%d, want 10/10/10",
			res.Failures, res.NaNs, res.Stats.Moments.Count)
	}
}

func TestMonteCarloStatisticsConverge(t *testing.T) {
	res, err := runCampaign(context.Background(), 200000, 5, func(rng *mathx.RNG, _ int) (float64, error) {
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
	if med := res.Stats.Quantile(0.5); !mathx.ApproxEqual(med, 3, 0.02, 0) {
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
		if c.DeltaVTP != c.DeltaVTN || c.BetaP != c.BetaN {
			t.Fatalf("global corner shifts the polarities apart: %+v", c)
		}
		vts.Add(c.DeltaVTN)
		betas.Add(c.BetaN)
	}
	if !mathx.ApproxEqual(vts.StdDev(), 0.03, 0.05, 0) {
		t.Errorf("corner VT σ = %g", vts.StdDev())
	}
	if !mathx.ApproxEqual(betas.Mean(), 1, 0.01, 0) {
		t.Errorf("corner beta mean = %g", betas.Mean())
	}
}
