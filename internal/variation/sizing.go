package variation

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/mathx"
)

// MinAreaForOffset inverts the Pelgrom law (Eq. 1): the minimum gate area
// W·L (m²) a matched pair needs so that |ΔVT| stays below offsetSpec volts
// with the given yield (e.g. 0.997 for a ±3σ design). The distance term is
// evaluated at separation d; when the area term alone cannot meet the spec
// because the gradient term already exceeds it, an error is returned —
// the layout, not the sizing, must change.
//
// paper: §2 — TestMinAreaMonteCarloConfirms asserts that pairs drawn at the
// computed area meet the offset spec at the target yield.
func MinAreaForOffset(tech *device.Technology, offsetSpec, yield, d float64) (float64, error) {
	if offsetSpec <= 0 {
		return 0, fmt.Errorf("variation: non-positive offset spec %g", offsetSpec)
	}
	if yield <= 0 || yield >= 1 {
		return 0, fmt.Errorf("variation: yield %g out of (0,1)", yield)
	}
	// |ΔVT| < spec with probability `yield` for a centred normal:
	// spec = z · σ with z = Φ⁻¹((1+yield)/2).
	z := mathx.NormQuantile((1 + yield) / 2)
	sigmaMax := offsetSpec / z
	grad := tech.SVT * d
	if grad >= sigmaMax {
		return 0, fmt.Errorf("variation: gradient term %g V at D=%g m already exceeds the σ budget %g V — reduce spacing or add common-centroid layout", grad, d, sigmaMax)
	}
	// σ² = AVT²/(WL) + (SVT·D)²  =>  WL = AVT² / (σmax² − grad²).
	return tech.AVT * tech.AVT / (sigmaMax*sigmaMax - grad*grad), nil
}

// MirrorAccuracy translates a threshold mismatch into a current-mirror
// ratio error: δI/I ≈ gm/I · ΔVT ≈ 2·ΔVT/Vov in strong inversion. It
// returns the σ of the relative current error for a pair of geometry
// (w, l) at overdrive vov, combining the VT and β terms of Eq. 1 (they add
// in quadrature, being independent).
//
// paper: §2 — TestMirrorAccuracyTrends asserts that mirror accuracy
// improves with device area and overdrive.
func MirrorAccuracy(tech *device.Technology, w, l, vov float64) float64 {
	if vov <= 0 {
		panic(fmt.Sprintf("variation: non-positive overdrive %g", vov))
	}
	sVT := tech.SigmaVT(w, l, 0)
	sBeta := tech.SigmaBeta(w, l)
	vtTerm := 2 * sVT / vov
	return math.Sqrt(vtTerm*vtTerm + sBeta*sBeta)
}

// SizeMirrorForAccuracy returns the gate area (m²) a current mirror needs
// for a relative current accuracy of sigmaRel at overdrive vov. Both the
// VT and β Pelgrom terms scale as 1/√(WL), so the area follows directly.
//
// paper: §2 — TestSizeMirrorForAccuracyRoundTrip asserts that a mirror of
// the returned area meets the accuracy target.
func SizeMirrorForAccuracy(tech *device.Technology, sigmaRel, vov float64) (float64, error) {
	if sigmaRel <= 0 {
		return 0, fmt.Errorf("variation: non-positive accuracy target %g", sigmaRel)
	}
	if vov <= 0 {
		return 0, fmt.Errorf("variation: non-positive overdrive %g", vov)
	}
	// σ_rel² = [ (2·AVT/vov)² + ABeta² ] / (W·L)
	vtTerm := 2 * tech.AVT / vov
	num := vtTerm*vtTerm + tech.ABeta*tech.ABeta
	return num / (sigmaRel * sigmaRel), nil
}

// SampleMismatchWithLER draws a device's local variation including the
// line-edge-roughness contribution of §2, which adds in quadrature to the
// Pelgrom area term and dominates for narrow devices in scaled nodes.
//
// paper: §2 — TestSampleMismatchWithLERWiderSigma asserts that line-edge
// roughness widens the ΔVT spread by the quadrature sum.
func SampleMismatchWithLER(tech *device.Technology, w, l float64, rng *mathx.RNG) device.Mismatch {
	sigmaPelgrom := tech.SigmaVT(w, l, 0) / math.Sqrt2
	sigmaLER := LERSigmaVT(tech, w) / math.Sqrt2
	sigmaVT := math.Sqrt(sigmaPelgrom*sigmaPelgrom + sigmaLER*sigmaLER)
	sigmaBeta := tech.SigmaBeta(w, l) / math.Sqrt2
	return device.Mismatch{
		DeltaVT0:   sigmaVT * rng.Norm(),
		BetaFactor: 1 + sigmaBeta*rng.Norm(),
	}
}
