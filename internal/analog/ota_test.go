package analog

import (
	"context"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/mathx"
	"repro/internal/variation"
)

func TestOTAOperatingPoint(t *testing.T) {
	o, err := NewOTA(DefaultOTA())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := o.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	vdd := o.Config.Tech.VDD
	// The DC feedback must park the output near the input common mode.
	out := sol.Voltage("out")
	if math.Abs(out-o.Config.VCM) > 0.2 {
		t.Errorf("output DC %g far from VCM %g", out, o.Config.VCM)
	}
	// Internal nodes inside the rails.
	for _, n := range []string{"n1", "n2", "tail", "nbias"} {
		v := sol.Voltage(n)
		if v < -0.05 || v > vdd+0.05 {
			t.Errorf("node %s at %g outside rails", n, v)
		}
	}
	// Tail current splits between the pair.
	i1 := o.M1.OP().ID
	i2 := o.M2.OP().ID
	it := o.MTail.OP().ID
	if !mathx.ApproxEqual(i1+i2, it, 0.05, 1e-9) {
		t.Errorf("pair currents %g+%g don't sum to tail %g", i1, i2, it)
	}
}

func TestOTASpecsPlausible(t *testing.T) {
	o, err := NewOTA(DefaultOTA())
	if err != nil {
		t.Fatal(err)
	}
	s, err := o.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if s.DCGainDB < 40 || s.DCGainDB > 100 {
		t.Errorf("DC gain %.1f dB outside the plausible two-stage band", s.DCGainDB)
	}
	if s.GBW < 1e5 || s.GBW > 1e9 {
		t.Errorf("GBW %g Hz implausible", s.GBW)
	}
	if s.PhaseMarginDeg < 20 || s.PhaseMarginDeg > 120 {
		t.Errorf("phase margin %.1f° implausible", s.PhaseMarginDeg)
	}
	if s.CMRRDB < 20 {
		t.Errorf("CMRR %.1f dB too low for a differential pair", s.CMRRDB)
	}
}

func TestOTAOffsetNominalSmall(t *testing.T) {
	o, err := NewOTA(DefaultOTA())
	if err != nil {
		t.Fatal(err)
	}
	vos, err := o.InputOffset()
	if err != nil {
		t.Fatal(err)
	}
	// Matched devices: only systematic offset remains.
	if math.Abs(vos) > 0.02 {
		t.Errorf("nominal offset %g V too large", vos)
	}
}

func TestOTAOffsetFollowsPairMismatch(t *testing.T) {
	// Injecting ΔVT on one input device must appear ~1:1 at the input.
	o, err := NewOTA(DefaultOTA())
	if err != nil {
		t.Fatal(err)
	}
	base, err := o.InputOffset()
	if err != nil {
		t.Fatal(err)
	}
	o.M1.Dev.Mismatch = device.Mismatch{DeltaVT0: 5e-3, BetaFactor: 1}
	shifted, err := o.InputOffset()
	if err != nil {
		t.Fatal(err)
	}
	delta := math.Abs(shifted - base)
	if delta < 3e-3 || delta > 8e-3 {
		t.Errorf("5 mV pair ΔVT produced %g V of offset, want ~5 mV", delta)
	}
}

func TestOTAOffsetMonteCarlo(t *testing.T) {
	// MC offset σ should be close to √2 × single-device σVT of the pair
	// (load mismatch adds on top).
	cfg := DefaultOTA()
	camp := variation.Campaign{Trials: 60, Seed: 9, Trial: func(rng *mathx.RNG, _ int) (float64, error) {
		o, err := NewOTA(cfg)
		if err != nil {
			return 0, err
		}
		for _, m := range o.AllDevices() {
			m.Dev.Mismatch = variation.SampleMismatch(cfg.Tech, m.Dev.Params.W, m.Dev.Params.L, rng)
		}
		return o.InputOffset()
	}}
	res, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures > 3 {
		t.Fatalf("%d MC trials failed", res.Failures)
	}
	sigma := res.StdDev()
	pairSigma := cfg.Tech.SigmaVT(cfg.WPair, 2*cfg.Tech.Lmin, 0)
	if sigma < 0.5*pairSigma || sigma > 4*pairSigma {
		t.Errorf("offset σ %g vs pair σVT %g out of band", sigma, pairSigma)
	}
}

func TestOTAGainDegradesWithAging(t *testing.T) {
	fresh, err := NewOTA(DefaultOTA())
	if err != nil {
		t.Fatal(err)
	}
	sF, err := fresh.Measure()
	if err != nil {
		t.Fatal(err)
	}
	aged, err := NewOTA(DefaultOTA())
	if err != nil {
		t.Fatal(err)
	}
	// Pure HCI output-conductance degradation on the second stage: the
	// interface states near the drains double the channel-length
	// modulation, halving the stage's output resistance — a clean ~6 dB
	// gain loss without the bias-current confound (threshold shifts lower
	// the currents, which *raises* gm/I and can mask the loss).
	for _, m := range []*device.Mosfet{aged.MDrv.Dev, aged.MSrc.Dev} {
		d := device.FreshDamage()
		d.LambdaFactor = 2.0
		m.Damage = d
	}
	sA, err := aged.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if sA.DCGainDB >= sF.DCGainDB-3 {
		t.Errorf("doubled output-stage λ should cost ~6 dB: fresh %.1f dB, aged %.1f dB",
			sF.DCGainDB, sA.DCGainDB)
	}
}

func TestOTAValidation(t *testing.T) {
	bad := DefaultOTA()
	bad.CC = 0
	if _, err := NewOTA(bad); err == nil {
		t.Error("zero Miller cap accepted")
	}
	bad = DefaultOTA()
	bad.Tech = nil
	if _, err := NewOTA(bad); err == nil {
		t.Error("missing tech accepted")
	}
}
