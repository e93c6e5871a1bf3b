package device

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func testNMOS() *Mosfet {
	t := MustTech("180nm")
	return NewMosfet(t.NMOSParams(1e-6, 180e-9, 300))
}

func testPMOS() *Mosfet {
	t := MustTech("180nm")
	return NewMosfet(t.PMOSParams(2e-6, 180e-9, 300))
}

func TestNMOSOffWhenBelowThreshold(t *testing.T) {
	m := testNMOS()
	op := m.Eval(0, 1.8, 0)
	if math.Abs(op.ID) > 1e-7 {
		t.Errorf("off-state current %g too large", op.ID)
	}
	if op.Region != "off" {
		t.Errorf("region = %q, want off", op.Region)
	}
}

func TestNMOSSaturationCurrentScalesWithOverdrive(t *testing.T) {
	m := testNMOS()
	id1 := m.Eval(0.9, 1.8, 0).ID
	id2 := m.Eval(1.35, 1.8, 0).ID
	if id1 <= 0 || id2 <= 0 {
		t.Fatalf("saturation currents must be positive: %g, %g", id1, id2)
	}
	// Square law: doubling the overdrive should give roughly 4x current.
	ratio := id2 / id1
	if ratio < 3 || ratio > 5 {
		t.Errorf("current ratio for 2x overdrive = %g, want ~4", ratio)
	}
}

func TestPMOSCurrentSign(t *testing.T) {
	m := testPMOS()
	// Normal PMOS operation: source at VDD. With vgs = -1.2, vds = -1.2
	// the device conducts and ID (into drain) must be negative.
	op := m.Eval(-1.2, -1.2, 0)
	if op.ID >= 0 {
		t.Errorf("PMOS drain current = %g, want negative", op.ID)
	}
	if op.Gm <= 0 || op.Gds <= 0 {
		t.Errorf("PMOS conductances must be positive: gm=%g gds=%g", op.Gm, op.Gds)
	}
}

func TestDrainSourceSymmetry(t *testing.T) {
	// Swapping drain and source must reverse the current: with body and
	// gate referenced to the same node, ID(vgs, vds) with the channel
	// reversed equals -ID evaluated from the other end.
	m := testNMOS()
	vg, vd, vs, vb := 1.5, 0.3, 0.1, 0.0
	fwd := m.Eval(vg-vs, vd-vs, vb-vs).ID
	rev := m.Eval(vg-vd, vs-vd, vb-vd).ID
	if !mathx.ApproxEqual(fwd, -rev, 1e-6, 1e-15) {
		t.Errorf("symmetry violated: fwd=%g rev=%g", fwd, rev)
	}
}

func TestDerivativesMatchNumeric(t *testing.T) {
	devs := []*Mosfet{testNMOS(), testPMOS()}
	biases := [][3]float64{
		{0.8, 1.0, 0}, {0.4, 0.05, 0}, {1.5, 1.8, -0.3},
		{-0.8, -1.0, 0}, {-1.5, -1.8, 0.3}, {0.2, 0.5, 0},
		{0.8, -0.5, -0.6}, {1.2, -0.05, -0.1}, // reverse-conduction (swapped) branch
	}
	const h = 1e-6
	for _, m := range devs {
		for _, b := range biases {
			vgs, vds, vbs := b[0], b[1], b[2]
			op := m.Eval(vgs, vds, vbs)
			gmNum := (m.Eval(vgs+h, vds, vbs).ID - m.Eval(vgs-h, vds, vbs).ID) / (2 * h)
			gdsNum := (m.Eval(vgs, vds+h, vbs).ID - m.Eval(vgs, vds-h, vbs).ID) / (2 * h)
			gmbNum := (m.Eval(vgs, vds, vbs+h).ID - m.Eval(vgs, vds, vbs-h).ID) / (2 * h)
			if !mathx.ApproxEqual(op.Gm, gmNum, 1e-4, 1e-12) {
				t.Errorf("%v bias %v: gm=%g numeric %g", m.Params.Type, b, op.Gm, gmNum)
			}
			if !mathx.ApproxEqual(op.Gds, gdsNum, 1e-4, 1e-12) {
				t.Errorf("%v bias %v: gds=%g numeric %g", m.Params.Type, b, op.Gds, gdsNum)
			}
			if !mathx.ApproxEqual(op.Gmb, gmbNum, 1e-3, 1e-12) {
				t.Errorf("%v bias %v: gmb=%g numeric %g", m.Params.Type, b, op.Gmb, gmbNum)
			}
		}
	}
}

func TestCurrentContinuityProperty(t *testing.T) {
	// The model must be smooth: small bias steps give small current steps.
	m := testNMOS()
	if err := quick.Check(func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		vgs := 2.0 * r.Float64()
		vds := 2.0 * r.Float64()
		const h = 1e-7
		i0 := m.Eval(vgs, vds, 0).ID
		i1 := m.Eval(vgs+h, vds, 0).ID
		// Slope bounded by a generous gm bound.
		return math.Abs(i1-i0) < 1e-2*h+1e-15
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBodyEffectRaisesThreshold(t *testing.T) {
	m := testNMOS()
	op0 := m.Eval(1.0, 1.8, 0)
	opRev := m.Eval(1.0, 1.8, -0.9) // reverse body bias (vsb = +0.9)
	if opRev.VTeff <= op0.VTeff {
		t.Errorf("VTeff with reverse body bias %g <= nominal %g", opRev.VTeff, op0.VTeff)
	}
	if opRev.ID >= op0.ID {
		t.Errorf("reverse body bias should reduce current: %g >= %g", opRev.ID, op0.ID)
	}
}

func TestDamageReducesCurrent(t *testing.T) {
	fresh := testNMOS()
	aged := testNMOS()
	aged.Damage = Damage{DeltaVT: 0.05, MobilityFactor: 0.9, LambdaFactor: 1.3}
	iFresh := fresh.Eval(1.0, 1.8, 0).ID
	iAged := aged.Eval(1.0, 1.8, 0).ID
	if iAged >= iFresh {
		t.Errorf("aged current %g >= fresh %g", iAged, iFresh)
	}
	// Output conductance must increase with LambdaFactor > 1.
	gFresh := fresh.Eval(1.0, 1.8, 0).Gds
	gAged := aged.Eval(1.0, 1.8, 0).Gds
	if gAged/iAged <= gFresh/iFresh {
		t.Errorf("normalised gds should rise with damage: %g vs %g", gAged/iAged, gFresh/iFresh)
	}
}

func TestMismatchShiftsCurrent(t *testing.T) {
	m1 := testNMOS()
	m2 := testNMOS()
	m2.Mismatch = Mismatch{DeltaVT0: 0.01, BetaFactor: 1}
	i1 := m1.Eval(0.8, 1.8, 0).ID
	i2 := m2.Eval(0.8, 1.8, 0).ID
	if i2 >= i1 {
		t.Errorf("positive DeltaVT0 should reduce NMOS current: %g >= %g", i2, i1)
	}
}

func TestSubthresholdSlope(t *testing.T) {
	// In weak inversion, current should be exponential in VGS with slope
	// factor n: decade per n·Vt·ln(10) ≈ 100 mV at n=1.3, T=300K.
	m := testNMOS()
	v1, v2 := 0.20, 0.30
	i1 := m.Eval(v1, 1.0, 0).ID
	i2 := m.Eval(v2, 1.0, 0).ID
	slope := (v2 - v1) / math.Log10(i2/i1) * 1000 // mV/decade
	want := 1.3 * 0.02585 * math.Ln10 * 1000
	if math.Abs(slope-want) > 8 {
		t.Errorf("subthreshold slope %g mV/dec, want ~%g", slope, want)
	}
}

func TestGateCapacitancePositive(t *testing.T) {
	m := testNMOS()
	cgs, cgd := m.GateCapacitance()
	if cgs <= 0 || cgd <= 0 {
		t.Fatalf("capacitances must be positive: %g, %g", cgs, cgd)
	}
	// W=1µm, L=180nm, Tox=4nm: Cox ~ 8.6e-3 F/m² × 1.8e-13 m² ≈ 1.6 fF.
	if cgs > 5e-15 || cgs < 1e-16 {
		t.Errorf("cgs = %g F implausible", cgs)
	}
}

func TestFieldHelpers(t *testing.T) {
	m := testNMOS()
	eox := m.OxideField(1.8)
	if !mathx.ApproxEqual(eox, 1.8/4e-9, 1e-12, 0) {
		t.Errorf("OxideField = %g", eox)
	}
	em := m.LateralField(1.8)
	if !mathx.ApproxEqual(em, 1.8/(0.2*180e-9), 1e-12, 0) {
		t.Errorf("LateralField = %g", em)
	}
	if qi := m.InversionCharge(1.8); qi <= 0 {
		t.Errorf("InversionCharge = %g", qi)
	}
}

func TestValidate(t *testing.T) {
	p := MustTech("90nm").NMOSParams(1e-6, 90e-9, 300)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := p
	bad.W = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero width accepted")
	}
	bad = p
	bad.TempK = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative temperature accepted")
	}
}

// BenchmarkEvalScalar measures scalar Eval over 256 mismatched instances
// of one device, the per-trial compact-model cost of a Monte-Carlo
// campaign.
func BenchmarkEvalScalar(b *testing.B) {
	tech := MustTech("65nm")
	p := tech.NMOSParams(1e-6, 2*tech.Lmin, 300)
	const nTrials = 256
	devs := make([]*Mosfet, nTrials)
	for i := range devs {
		devs[i] = NewMosfet(p)
		devs[i].Mismatch.DeltaVT0 = 0.01 * float64(i%7)
	}
	out := make([]OperatingPoint, nTrials)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t, d := range devs {
			out[t] = d.Eval(0.9, 0.6, 0)
		}
	}
}
