package aging

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

// ConsumedLife returns the normalised fraction of the sampled breakdown
// life already consumed (can exceed 1 after breakdown).
func (st *TDDBState) ConsumedLife() float64 {
	if st.critAge == 0 {
		return 0
	}
	return st.consumed / st.critAge
}

func TestHCIPowerLawExponent(t *testing.T) {
	m := DefaultHCI()
	ts := mathx.Logspace(10, 1e8, 15)
	ys := make([]float64, len(ts))
	for i, tt := range ts {
		ys[i] = m.Shift(5e-3, 5e8, 8e7, 300, tt, false)
	}
	_, n, r2 := mathx.PowerFit(ts, ys)
	if !mathx.ApproxEqual(n, m.N, 1e-9, 0) || r2 < 1-1e-12 {
		t.Errorf("exponent %g (r2=%g), want %g", n, r2, m.N)
	}
}

func TestHCILateralFieldAcceleration(t *testing.T) {
	m := DefaultHCI()
	// Eq. 2: exp(−Φit/(λ·Em)) — hugely sensitive to Em.
	low := m.Shift(5e-3, 5e8, 4e7, 300, 1e6, false)
	high := m.Shift(5e-3, 5e8, 8e7, 300, 1e6, false)
	if high <= low {
		t.Fatalf("lateral field acceleration missing: %g <= %g", high, low)
	}
	if high/low < 100 {
		t.Errorf("doubling Em should accelerate HCI by orders of magnitude, got ×%g", high/low)
	}
	if m.Shift(5e-3, 5e8, 0, 300, 1e6, false) != 0 {
		t.Error("zero lateral field must give zero HCI")
	}
}

func TestHCIPMOSWeaker(t *testing.T) {
	m := DefaultHCI()
	n := m.Shift(5e-3, 5e8, 8e7, 300, 1e6, false)
	p := m.Shift(5e-3, 5e8, 8e7, 300, 1e6, true)
	if p >= n {
		t.Errorf("pMOS HCI %g should be far below nMOS %g", p, n)
	}
	if !mathx.ApproxEqual(p/n, m.PMOSFactor, 1e-9, 0) {
		t.Errorf("pMOS derating %g, want %g", p/n, m.PMOSFactor)
	}
}

func TestHCITemperatureTrend(t *testing.T) {
	m := DefaultHCI()
	cold := m.Shift(5e-3, 5e8, 8e7, 250, 1e6, false)
	hot := m.Shift(5e-3, 5e8, 8e7, 400, 1e6, false)
	if hot <= cold {
		t.Errorf("deep-submicron HCI should worsen with T: %g <= %g", hot, cold)
	}
}

func TestHCICouplings(t *testing.T) {
	m := DefaultHCI()
	if m.MobilityFactor(0) != 1 || m.LambdaFactor(0) != 1 {
		t.Error("fresh factors must be 1")
	}
	if m.MobilityFactor(0.1) >= 1 {
		t.Error("mobility must degrade")
	}
	if m.LambdaFactor(0.1) <= 1 {
		t.Error("lambda (output conductance) must increase")
	}
}

func TestTDDBWeibullSlopeThinnerIsWider(t *testing.T) {
	m := DefaultTDDB()
	if m.WeibullSlope(8) <= m.WeibullSlope(2) {
		t.Error("thicker oxide must have steeper Weibull slope")
	}
	if m.WeibullSlope(0.5) != m.BetaMin {
		t.Error("slope must be floored at BetaMin")
	}
}

func TestTDDBEtaTrends(t *testing.T) {
	m := DefaultTDDB()
	base := m.Eta(5e8, 300, 1e-12, 2)
	if m.Eta(7e8, 300, 1e-12, 2) >= base {
		t.Error("higher field must shorten TBD")
	}
	if m.Eta(5e8, 400, 1e-12, 2) >= base {
		t.Error("higher temperature must shorten TBD")
	}
	if m.Eta(5e8, 300, 1e-10, 2) >= base {
		t.Error("larger area must shorten TBD (weakest link)")
	}
	// Area scaling is Poisson/weakest-link: η ∝ A^(−1/β).
	beta := m.WeibullSlope(2)
	r := m.Eta(5e8, 300, 1e-12, 2) / m.Eta(5e8, 300, 1e-11, 2)
	if !mathx.ApproxEqual(r, math.Pow(10, 1/beta), 1e-9, 0) {
		t.Errorf("area scaling ratio %g, want %g", r, math.Pow(10, 1/beta))
	}
}

func TestTDDBFieldAccelerationDecades(t *testing.T) {
	// ~1.5 decades of lifetime per MV/cm is the calibration.
	m := DefaultTDDB()
	r := m.Eta(5e8, 300, 1e-12, 2) / m.Eta(6e8, 300, 1e-12, 2)
	decades := math.Log10(r)
	if decades < 1.0 || decades > 2.0 {
		t.Errorf("1 MV/cm should buy 1-2 decades, got %g", decades)
	}
}

func TestModesForLadder(t *testing.T) {
	cases := []struct {
		tox  float64
		want []BDMode
	}{
		{7, []BDMode{HardBD}},
		{3, []BDMode{SoftBD, HardBD}},
		{1.8, []BDMode{SoftBD, ProgressiveBD, HardBD}},
	}
	for _, c := range cases {
		got := ModesFor(c.tox)
		if len(got) != len(c.want) {
			t.Errorf("ModesFor(%g) = %v", c.tox, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ModesFor(%g)[%d] = %v, want %v", c.tox, i, got[i], c.want[i])
			}
		}
	}
}

func TestTDDBStateProgressionUltraThin(t *testing.T) {
	// Drive an ultra-thin oxide hard and watch it walk the full ladder:
	// Fresh → SBD → PBD → HBD with leak growing monotonically.
	m := DefaultTDDB()
	rng := mathx.NewRNG(3)
	st := m.NewTDDBState(1e-12, 1.8, rng)
	if st.Mode != Fresh || st.Leak() != 0 {
		t.Fatal("new state must be fresh")
	}
	seen := map[BDMode]bool{Fresh: true}
	prevLeak := 0.0
	// Very high field so breakdown happens quickly in simulated time.
	for i := 0; i < 100000 && st.Mode != HardBD; i++ {
		m.Advance(st, 1e6, 1.2e9, 330, 1e-12)
		seen[st.Mode] = true
		if st.Leak() < prevLeak-1e-18 {
			t.Fatalf("leak decreased at step %d", i)
		}
		prevLeak = st.Leak()
	}
	for _, mode := range []BDMode{SoftBD, ProgressiveBD, HardBD} {
		if !seen[mode] {
			t.Errorf("mode %v never visited", mode)
		}
	}
	if st.Leak() != m.GHard {
		t.Errorf("HBD leak = %g, want %g", st.Leak(), m.GHard)
	}
	if st.MobilityFactor() != 0.80 {
		t.Errorf("HBD mobility factor = %g", st.MobilityFactor())
	}
}

func TestTDDBThickOxideSkipsSoftBD(t *testing.T) {
	m := DefaultTDDB()
	rng := mathx.NewRNG(5)
	st := m.NewTDDBState(1e-12, 7, rng)
	for i := 0; i < 200000 && st.Mode == Fresh; i++ {
		m.Advance(st, 1e7, 1.5e9, 350, 1e-12)
	}
	if st.Mode != HardBD {
		t.Fatalf("thick oxide should jump straight to HBD, got %v", st.Mode)
	}
}

func TestTDDBMidThicknessSBDThenHBD(t *testing.T) {
	m := DefaultTDDB()
	rng := mathx.NewRNG(7)
	st := m.NewTDDBState(1e-12, 3.5, rng)
	sawSBD := false
	for i := 0; i < 400000 && st.Mode != HardBD; i++ {
		m.Advance(st, 1e7, 1.5e9, 350, 1e-12)
		if st.Mode == SoftBD {
			sawSBD = true
		}
		if st.Mode == ProgressiveBD {
			t.Fatal("3.5 nm oxide must not enter PBD")
		}
	}
	if !sawSBD || st.Mode != HardBD {
		t.Errorf("mid-thickness ladder broken: sawSBD=%v final=%v", sawSBD, st.Mode)
	}
}

func TestTDDBSampledTBDMatchesWeibull(t *testing.T) {
	// Under constant stress, the state-machine breakdown times must
	// reproduce the analytic Weibull distribution.
	m := DefaultTDDB()
	eox, temp, area, tox := 1.1e9, 330.0, 1e-12, 2.0
	eta := m.Eta(eox, temp, area, tox)
	beta := m.WeibullSlope(tox)
	rng := mathx.NewRNG(11)
	const n = 3000
	times := make([]float64, 0, n)
	dt := eta / 200
	for i := 0; i < n; i++ {
		st := m.NewTDDBState(area, tox, rng)
		tt := 0.0
		for st.Mode == Fresh {
			m.Advance(st, dt, eox, temp, area)
			tt += dt
			if tt > eta*100 {
				break
			}
		}
		times = append(times, tt)
	}
	// Median check: Weibull median = η·(ln 2)^(1/β).
	wantMedian := eta * math.Pow(math.Ln2, 1/beta)
	gotMedian := mathx.Median(times)
	if !mathx.ApproxEqual(gotMedian, wantMedian, 0.08, 0) {
		t.Errorf("median TBD %g, Weibull says %g", gotMedian, wantMedian)
	}
	// Full-distribution check: Kolmogorov-Smirnov against the analytic
	// Weibull (generous alpha — the discrete stepping quantises the
	// times).
	ks := mathx.KSStatistic(times, mathx.NewWeibull(beta, eta))
	if ks > 2*mathx.KSCritical(len(times), 0.01) {
		t.Errorf("TBD sample KS=%g too far from the analytic Weibull", ks)
	}
}

func TestTDDBDeterministicPerSeed(t *testing.T) {
	m := DefaultTDDB()
	mk := func() float64 {
		st := m.NewTDDBState(1e-12, 2, mathx.NewRNG(99))
		tt := 0.0
		for st.Mode == Fresh && tt < 1e12 {
			m.Advance(st, 1e6, 1.1e9, 330, 1e-12)
			tt += 1e6
		}
		return tt
	}
	if mk() != mk() {
		t.Error("same seed must give same breakdown time")
	}
}

func TestTDDBConsumedLife(t *testing.T) {
	m := DefaultTDDB()
	st := m.NewTDDBState(1e-12, 2, mathx.NewRNG(1))
	if st.ConsumedLife() != 0 {
		t.Error("fresh consumed life must be 0")
	}
	m.Advance(st, 1e6, 1.1e9, 330, 1e-12)
	if st.ConsumedLife() <= 0 {
		t.Error("consumed life must grow under stress")
	}
}
