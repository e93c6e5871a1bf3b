package device

import (
	"math"
	"testing"
)

// The pre-fusion compact-model composition, kept as the reference that
// Eval must reproduce bit for bit: F and F′ each recomputed the softplus
// ln(1+exp(x/2)), and the sigmoid its own exp.

func refEKVF(x float64) float64 {
	l := refSoftplus(x / 2)
	return l * l
}

func refEKVFPrime(x float64) float64 {
	return refSoftplus(x/2) * refSigmoid(x/2)
}

func refSoftplus(x float64) float64 {
	if x > 40 {
		return x
	}
	if x < -40 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}

func refSigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// refEval is Eval as written on refEKVF and refEKVFPrime.
func refEval(m *Mosfet, vgs, vds, vbs float64) OperatingPoint {
	p := &m.Params
	sign := 1.0
	if p.Type == PMOS {
		sign = -1
		vgs, vds, vbs = -vgs, -vds, -vbs
	}
	swapped := false
	if vds < 0 {
		swapped = true
		vgs, vds, vbs = vgs-vds, -vds, vbs-vds
	}
	vt := thermalVoltage(p.TempK)
	n := p.N
	vsb := -vbs
	gamma := p.Gamma + m.Mismatch.DeltaGamma
	phi := p.Phi
	sqrtPhi := math.Sqrt(phi)
	var sq, dsq float64
	if vsb >= 0 {
		sq = math.Sqrt(phi + vsb)
		dsq = 1 / (2 * sq)
	} else {
		sq = sqrtPhi + vsb/(2*sqrtPhi)
		dsq = 1 / (2 * sqrtPhi)
	}
	vteff := m.VT() + gamma*(sq-sqrtPhi)
	dvtdvsb := gamma * dsq
	beta := m.Beta()
	ispec := 2 * n * beta * vt * vt
	vp := (vgs - vteff) / n
	xf := vp / vt
	xr := (vp - vds) / vt
	ff := refEKVF(xf)
	fr := refEKVF(xr)
	lambda := p.Lambda * m.Damage.LambdaFactor
	clm := 1 + lambda*vds
	dclm := lambda
	idCore := ispec * (ff - fr)
	id := idCore * clm
	dfdxf := refEKVFPrime(xf)
	dfdxr := refEKVFPrime(xr)
	gm := ispec * (dfdxf - dfdxr) / (n * vt) * clm
	gds := ispec*dfdxr/vt*clm + idCore*dclm
	gmb := ispec * (dfdxf - dfdxr) * dvtdvsb / (n * vt) * clm
	region := classifyRegion(vgs, vds, vteff)
	if swapped {
		id, gm, gds, gmb = -id, -gm, gm+gds+gmb, -gmb
	}
	return OperatingPoint{ID: sign * id, Gm: gm, Gds: gds, Gmb: gmb, VTeff: vteff, Region: region}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestEKVTermMatchesReference checks the fused F/F′ evaluation against
// the reference composition at the branch boundaries of the softplus and
// sigmoid (x/2 = ±40, 0), just either side of them, at signed zeros and
// at the non-finite inputs.
func TestEKVTermMatchesReference(t *testing.T) {
	xs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	for _, h := range []float64{-40, 0, 40} {
		x := 2 * h
		xs = append(xs, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
	}
	for x := -200.0; x <= 200; x += 0.37 {
		xs = append(xs, x)
	}
	for _, x := range xs {
		f, fp := ekvTerm(x)
		if wf, wfp := refEKVF(x), refEKVFPrime(x); !sameBits(f, wf) || !sameBits(fp, wfp) {
			t.Errorf("ekvTerm(%v) = (%v, %v), reference (%v, %v)", x, f, fp, wf, wfp)
		}
	}
}

// TestEvalMatchesReference compares every OperatingPoint field of Eval
// and the reference composition bit for bit over a bias grid wide enough
// that x/2 crosses −40, 0 and +40 on both EKV terms, for NMOS and PMOS,
// reversed vds, 300 K and 398 K, a mismatched and damaged instance, and
// NaN and ±Inf biases.
func TestEvalMatchesReference(t *testing.T) {
	tech := MustTech("65nm")
	var devs []*Mosfet
	for _, tempK := range []float64{300, 398} {
		devs = append(devs,
			NewMosfet(tech.NMOSParams(1e-6, 2*tech.Lmin, tempK)),
			NewMosfet(tech.PMOSParams(2e-6, 2*tech.Lmin, tempK)))
	}
	aged := NewMosfet(tech.NMOSParams(1e-6, tech.Lmin, 350))
	aged.Mismatch = Mismatch{DeltaVT0: 0.013, BetaFactor: 0.97, DeltaGamma: -0.02}
	aged.Damage = Damage{DeltaVT: 0.02, MobilityFactor: 0.9, LambdaFactor: 1.3}
	devs = append(devs, aged)

	var vs []float64
	for v := -6.0; v <= 6; v += 0.25 {
		vs = append(vs, v)
	}
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	vbs := []float64{-0.4, 0, 0.3}
	check := func(d *Mosfet, vgs, vds, vbs float64) {
		got, want := d.Eval(vgs, vds, vbs), refEval(d, vgs, vds, vbs)
		if !sameBits(got.ID, want.ID) || !sameBits(got.Gm, want.Gm) ||
			!sameBits(got.Gds, want.Gds) || !sameBits(got.Gmb, want.Gmb) ||
			!sameBits(got.VTeff, want.VTeff) || got.Region != want.Region {
			t.Fatalf("%v %gK Eval(%v, %v, %v) = %+v, reference %+v",
				d.Params.Type, d.Params.TempK, vgs, vds, vbs, got, want)
		}
	}
	for _, d := range devs {
		for _, vgs := range vs {
			for _, vds := range vs {
				for _, vb := range vbs {
					check(d, vgs, vds, vb)
				}
			}
		}
		for _, o := range odd {
			for _, v := range []float64{-1, 0, 1} {
				check(d, o, v, 0)
				check(d, v, o, 0)
				check(d, v, 1, o)
			}
		}
	}
}
