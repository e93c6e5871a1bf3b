package calib

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

// Output is the direct per-code evaluation that the incremental
// TransferCurve must reproduce.
func (d *DAC) Output(code int) float64 {
	if code < 0 || code >= d.Config.Codes() {
		panic(fmt.Sprintf("calib: code %d out of range", code))
	}
	binMask := (1 << d.Config.BinaryBits) - 1
	unaryCount := code >> d.Config.BinaryBits
	binCode := code & binMask

	out := 0.0
	unaryWeight := float64(int(1) << d.Config.BinaryBits)
	for k := 0; k < unaryCount; k++ {
		out += unaryWeight + d.unaryErr[d.seq[k]]
	}
	for b := 0; b < d.Config.BinaryBits; b++ {
		if binCode&(1<<b) != 0 {
			out += float64(int(1)<<b) + d.binErr[b]
		}
	}
	return out
}

func perfectDAC(t *testing.T, unary, binary int) *DAC {
	t.Helper()
	d, err := NewDAC(DACConfig{UnaryBits: unary, BinaryBits: binary, SigmaUnit: 0}, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPerfectDACIsLinear(t *testing.T) {
	d := perfectDAC(t, 3, 4)
	for code := 0; code < d.Config.Codes(); code++ {
		if got := d.Output(code); got != float64(code) {
			t.Fatalf("Output(%d) = %g", code, got)
		}
	}
	if d.MaxINL() != 0 || d.MaxDNL() != 0 {
		t.Error("perfect DAC must have zero INL/DNL")
	}
}

func TestTransferCurveMatchesOutput(t *testing.T) {
	d, err := NewDAC(DACConfig{UnaryBits: 4, BinaryBits: 5, SigmaUnit: 0.02}, mathx.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	curve := d.TransferCurve()
	for code := 0; code < d.Config.Codes(); code += 7 {
		if !mathx.ApproxEqual(curve[code], d.Output(code), 1e-12, 1e-12) {
			t.Fatalf("curve[%d] = %g, Output = %g", code, curve[code], d.Output(code))
		}
	}
}

func TestINLDNLDefinitions(t *testing.T) {
	// Hand-built curve: ideal 0,1,2,3 with a bump at code 2.
	curve := []float64{0, 1, 2.5, 3}
	inl := INL(curve)
	if inl[0] != 0 || inl[3] != 0 {
		t.Error("endpoint-corrected INL must vanish at the endpoints")
	}
	if !mathx.ApproxEqual(inl[2], 0.5, 1e-12, 0) {
		t.Errorf("INL[2] = %g, want 0.5", inl[2])
	}
	dnl := DNL(curve)
	// Steps: 1, 1.5, 0.5 against average 1.
	want := []float64{0, 0.5, -0.5}
	for i := range want {
		if !mathx.ApproxEqual(dnl[i], want[i], 1e-12, 1e-12) {
			t.Errorf("DNL[%d] = %g, want %g", i, dnl[i], want[i])
		}
	}
}

func TestDACOutputPanicsOutOfRange(t *testing.T) {
	d := perfectDAC(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Output(16)
}

func TestConfigValidation(t *testing.T) {
	bad := []DACConfig{
		{UnaryBits: 0, BinaryBits: 4},
		{UnaryBits: 4, BinaryBits: -1},
		{UnaryBits: 10, BinaryBits: 10},
		{UnaryBits: 4, BinaryBits: 4, SigmaUnit: -0.1},
	}
	for _, cfg := range bad {
		if _, err := NewDAC(cfg, mathx.NewRNG(1)); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if Paper14Bit(0.01).Bits() != 14 {
		t.Error("paper config must be 14 bits")
	}
}

func TestSetSequenceValidation(t *testing.T) {
	d := perfectDAC(t, 3, 2) // 7 unary sources
	if err := d.SetSequence([]int{0, 1, 2}); err == nil {
		t.Error("short sequence accepted")
	}
	if err := d.SetSequence([]int{0, 1, 2, 3, 4, 5, 5}); err == nil {
		t.Error("non-permutation accepted")
	}
	if err := d.SetSequence([]int{6, 5, 4, 3, 2, 1, 0}); err != nil {
		t.Errorf("valid permutation rejected: %v", err)
	}
}

func TestSSPAImprovesINL(t *testing.T) {
	cfg := Paper14Bit(0.03)
	worse, better := 0, 0
	for seed := uint64(0); seed < 20; seed++ {
		d, err := NewDAC(cfg, mathx.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		before := d.MaxINL()
		d.CalibrateSSPA(0, mathx.NewRNG(seed+1000))
		after := d.MaxINL()
		if after < before {
			better++
		} else {
			worse++
		}
	}
	if better < 18 {
		t.Errorf("SSPA improved only %d/20 instances", better)
	}
}

func TestSSPAIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		d, err := NewDAC(Paper14Bit(0.05), mathx.NewRNG(seed))
		if err != nil {
			return false
		}
		d.CalibrateSSPA(0, mathx.NewRNG(seed))
		seq := d.Sequence()
		seen := make([]bool, len(seq))
		for _, s := range seq {
			if s < 0 || s >= len(seq) || seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSSPAReachesHalfLSB(t *testing.T) {
	// At a mismatch level hopeless for intrinsic accuracy, SSPA should
	// still deliver INL < 0.5 LSB on most instances (the Fig. 5 claim).
	cfg := Paper14Bit(0.008)
	pass := 0
	const n = 15
	for seed := uint64(0); seed < n; seed++ {
		d, err := NewDAC(cfg, mathx.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		if d.MaxINL() < 0.5 {
			t.Logf("seed %d intrinsically accurate already (INL=%g)", seed, d.MaxINL())
		}
		d.CalibrateSSPA(0, mathx.NewRNG(seed))
		if d.MaxINL() < 0.5 {
			pass++
		}
	}
	if pass < n*2/3 {
		t.Errorf("SSPA reached 0.5 LSB on only %d/%d instances", pass, n)
	}
}

func TestSSPAWithMeasurementNoiseDegradesGracefully(t *testing.T) {
	cfg := Paper14Bit(0.03)
	var cleanSum, noisySum float64
	for seed := uint64(0); seed < 10; seed++ {
		d1, _ := NewDAC(cfg, mathx.NewRNG(seed))
		d2, _ := NewDAC(cfg, mathx.NewRNG(seed)) // identical instance
		// The noise RNG must not share the fabrication seed: the same
		// stream would re-emit the very normals that built the errors,
		// making the "noise" a perfectly correlated scale factor.
		d1.CalibrateSSPA(0, mathx.NewRNG(seed+7777))
		d2.CalibrateSSPA(2.0, mathx.NewRNG(seed+7777)) // hopeless comparator
		cleanSum += d1.MaxINL()
		noisySum += d2.MaxINL()
	}
	if noisySum <= cleanSum {
		t.Errorf("very noisy measurement should hurt calibration: %g <= %g", noisySum, cleanSum)
	}
}

func TestResetSequenceRestoresThermometer(t *testing.T) {
	d, _ := NewDAC(Paper14Bit(0.03), mathx.NewRNG(2))
	before := d.MaxINL()
	d.CalibrateSSPA(0, mathx.NewRNG(2))
	d.ResetSequence()
	if d.MaxINL() != before {
		t.Error("ResetSequence did not restore the original transfer curve")
	}
}

func TestINLYieldCalibratedBeatsIntrinsic(t *testing.T) {
	cfg := Paper14Bit(0.008)
	raw, err := INLYield(cfg, 0.5, false, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := INLYield(cfg, 0.5, true, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Yield <= raw.Yield {
		t.Errorf("calibrated yield %v not above intrinsic %v", cal, raw)
	}
	if cal.Yield < 0.9 {
		t.Errorf("calibrated yield %v unexpectedly low", cal)
	}
}

func TestINLYieldDeterministic(t *testing.T) {
	cfg := Paper14Bit(0.01)
	a, _ := INLYield(cfg, 0.5, true, 40, 3)
	b, _ := INLYield(cfg, 0.5, true, 40, 3)
	if a != b {
		t.Error("yield not reproducible for fixed seed")
	}
}

func TestRequiredSigmaOrdering(t *testing.T) {
	cfg := Paper14Bit(0) // sigma set by the search
	si, err := RequiredSigmaUnit(cfg, 0.5, 0.9, false, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := RequiredSigmaUnit(cfg, 0.5, 0.9, true, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	if sc <= si {
		t.Fatalf("calibration must tolerate more mismatch: σcal=%g σint=%g", sc, si)
	}
	ratio := (si / sc) * (si / sc)
	if ratio > 0.5 {
		t.Errorf("area ratio %g — calibration should save far more area", ratio)
	}
}

func TestRunAreaStudyShape(t *testing.T) {
	study, err := RunAreaStudy(Paper14Bit(0), 0.5, 0.9, 40, 13)
	if err != nil {
		t.Fatal(err)
	}
	// The Fig. 5 claim is ~6 %; accept the right order of magnitude (our
	// statistical substrate differs from silicon).
	if study.AnalogAreaRatio <= 0 || study.AnalogAreaRatio > 0.3 {
		t.Errorf("area ratio %g out of the plausible band", study.AnalogAreaRatio)
	}
	if study.SigmaCalibrated <= study.SigmaIntrinsic {
		t.Error("sigma ordering broken")
	}
}

func TestMaxAbs(t *testing.T) {
	if MaxAbs([]float64{-3, 1, 2}) != 3 {
		t.Error("MaxAbs broken")
	}
	if MaxAbs(nil) != 0 {
		t.Error("MaxAbs(nil) should be 0")
	}
}

func TestINLPanicsOnShortCurve(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	INL([]float64{1})
}

func TestBinaryCarryDNL(t *testing.T) {
	// With only binary errors, the worst DNL sits at the major carry.
	cfg := DACConfig{UnaryBits: 1, BinaryBits: 6, SigmaUnit: 0.05}
	d, err := NewDAC(cfg, mathx.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	dnl := DNL(d.TransferCurve())
	worstIdx, worst := 0, 0.0
	for i, v := range dnl {
		if math.Abs(v) > worst {
			worst = math.Abs(v)
			worstIdx = i
		}
	}
	// Worst step should involve a high-bit carry (codes with many bits
	// toggling), i.e. index+1 divisible by a decent power of two.
	if (worstIdx+1)%8 != 0 {
		t.Logf("worst DNL at step %d (value %g) — acceptable but unusual", worstIdx, worst)
	}
	if worst == 0 {
		t.Error("mismatched DAC cannot have zero DNL")
	}
}

func TestNewDACMatchesNewDACFromErrors(t *testing.T) {
	cfg := Paper14Bit(0.0099)
	rng := mathx.NewRNG(5)
	unaryZ := make([]float64, 63)
	binZ := make([]float64, 8)
	for i := range unaryZ {
		unaryZ[i] = rng.Norm()
	}
	for i := range binZ {
		binZ[i] = rng.Norm()
	}
	a, err := NewDAC(cfg, mathx.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDACFromErrors(cfg, unaryZ, binZ)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := a.TransferCurve(), b.TransferCurve()
	for code := range ca {
		if ca[code] != cb[code] {
			t.Fatalf("code %d: NewDAC %v, NewDACFromErrors %v", code, ca[code], cb[code])
		}
	}
}

// An ideal comparator ranks sources as their deviates do, so the SSPA
// sequence of a die must not depend on σ, and its worst INL must scale
// with σ: RequiredSigmaUnit reads every σ off one run at σ = 1.
func TestSSPASequenceIsScaleFree(t *testing.T) {
	const small = 0.0099
	for seed := uint64(0); seed < 200; seed++ {
		unit, err := NewDAC(Paper14Bit(1), mathx.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		scaled, err := NewDAC(Paper14Bit(small), mathx.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		unit.CalibrateSSPA(0, mathx.NewRNG(seed))
		scaled.CalibrateSSPA(0, mathx.NewRNG(seed))
		su, ss := unit.Sequence(), scaled.Sequence()
		for k := range su {
			if su[k] != ss[k] {
				t.Fatalf("seed %d: sequences differ at position %d: σ=1 %v, σ=%g %v", seed, k, su, small, ss)
			}
		}
		if got, want := scaled.MaxINL(), small*unit.MaxINL(); !mathx.ApproxEqual(got, want, 1e-9, 0) {
			t.Fatalf("seed %d: MaxINL at σ=%g is %g, want σ·MaxINL(1) = %g", seed, small, got, want)
		}
	}
}

// RequiredSigmaUnit must sit on the yield boundary of the same dies:
// INLYield meets the target just below it and misses it just above.
func TestRequiredSigmaUnitIsYieldBoundary(t *testing.T) {
	const limit, target, nMC = 0.5, 0.9, 40
	for _, seed := range []uint64{11, 13} {
		for _, calibrated := range []bool{false, true} {
			sigma, err := RequiredSigmaUnit(Paper14Bit(0), limit, target, calibrated, nMC, seed)
			if err != nil {
				t.Fatal(err)
			}
			below, err := INLYield(Paper14Bit(sigma*(1-1e-9)), limit, calibrated, nMC, seed)
			if err != nil {
				t.Fatal(err)
			}
			above, err := INLYield(Paper14Bit(sigma*(1+1e-9)), limit, calibrated, nMC, seed)
			if err != nil {
				t.Fatal(err)
			}
			if below.Yield < target || above.Yield >= target {
				t.Errorf("seed %d calibrated=%v: σ*=%g, yield %v just below and %v just above, want >= %g then < %g",
					seed, calibrated, sigma, below, above, target, target)
			}
		}
	}
}

func TestRequiredSigmaUnitRejects(t *testing.T) {
	cfg := Paper14Bit(0)
	cases := []struct {
		name          string
		cfg           DACConfig
		limit, target float64
		nMC           int
	}{
		{"yield zero", cfg, 0.5, 0, 10},
		{"yield one", cfg, 0.5, 1, 10},
		{"no dies", cfg, 0.5, 0.9, 0},
		{"zero limit", cfg, 0, 0.9, 10},
		{"no die measured", DACConfig{UnaryBits: 0, BinaryBits: 4}, 0.5, 0.9, 10},
	}
	for _, c := range cases {
		if s, err := RequiredSigmaUnit(c.cfg, c.limit, c.target, false, c.nMC, 1); err == nil {
			t.Errorf("%s: got σ=%g, want an error", c.name, s)
		}
	}
}
