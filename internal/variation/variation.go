// Package variation implements the time-zero variability layer of the
// paper's Section 2: Pelgrom-law mismatch sampling (Eq. 1), the Tuinhout
// AVT(Tox) trend of Fig. 1, a line-edge-roughness contribution, global
// (die-to-die) corners, and a deterministic parallel Monte-Carlo engine
// with yield estimation.
package variation

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
)

// SamplePairDeltaVT draws one ΔVT sample for a matched device pair of
// geometry (w, l) at separation d in technology tech — the quantity whose
// standard deviation Eq. 1 describes.
func SamplePairDeltaVT(tech *device.Technology, w, l, d float64, rng *mathx.RNG) float64 {
	return tech.SigmaVT(w, l, d) * rng.Norm()
}

// SampleMismatch draws the local variation of a single device. Individual
// devices deviate with σ_pair/√2 so that the difference of two independent
// samples reproduces the pair σ of Eq. 1.
func SampleMismatch(tech *device.Technology, w, l float64, rng *mathx.RNG) device.Mismatch {
	sigmaVT := tech.SigmaVT(w, l, 0) / math.Sqrt2
	sigmaBeta := tech.SigmaBeta(w, l) / math.Sqrt2
	return device.Mismatch{
		DeltaVT0:   sigmaVT * rng.Norm(),
		BetaFactor: 1 + sigmaBeta*rng.Norm(),
	}
}

// LERSigmaVT returns the additional threshold σ (volts) contributed by
// line-edge roughness for a device of width w metres. LER is uncorrelated
// edge noise, so its variance averages down with width:
//
//	σ²_LER = (K_LER)² · Wref/W
//
// with K_LER calibrated per technology from its minimum length — shorter
// channels are proportionally more sensitive to edge position.
func LERSigmaVT(tech *device.Technology, w float64) float64 {
	if w <= 0 {
		panic(fmt.Sprintf("variation: non-positive width %g", w))
	}
	// K_LER: 1 mV at W = 1 µm for a 180 nm device, growing as the channel
	// shortens (edge roughness is a fixed ~2 nm rms while L shrinks).
	k := 1e-3 * (180e-9 / tech.Lmin)
	const wref = 1e-6
	return k * math.Sqrt(wref/w)
}

// NominalCorner returns the typical-typical corner: no systematic shift.
func NominalCorner() Corner { return Corner{Name: "TT", BetaN: 1, BetaP: 1} }

// SampleGlobalCorner draws an unnamed die-level corner with the given
// sigmas, shifting n- and p-channel devices alike.
func SampleGlobalCorner(sigmaVT, sigmaBeta float64, rng *mathx.RNG) Corner {
	dvt := sigmaVT * rng.Norm()
	beta := 1 + sigmaBeta*rng.Norm()
	return Corner{DeltaVTN: dvt, DeltaVTP: dvt, BetaN: beta, BetaP: beta}
}

// ApplyRandomMismatch samples fresh local mismatch for every MOSFET in the
// circuit on top of the die corner's per-polarity shift: the systematic
// component is held at the corner while the Pelgrom part varies per die.
// Existing damage is preserved.
func ApplyRandomMismatch(c *circuit.Circuit, tech *device.Technology, co Corner, rng *mathx.RNG) {
	for _, m := range c.MOSFETList() {
		mm := SampleMismatch(tech, m.Dev.Params.W, m.Dev.Params.L, rng)
		if m.Dev.Params.Type == device.PMOS {
			mm.DeltaVT0 += co.DeltaVTP
			mm.BetaFactor *= co.BetaP
		} else {
			mm.DeltaVT0 += co.DeltaVTN
			mm.BetaFactor *= co.BetaN
		}
		m.Dev.Mismatch = mm
	}
}

// ResetMismatch restores every MOSFET in the circuit to nominal.
func ResetMismatch(c *circuit.Circuit) {
	for _, m := range c.MOSFETList() {
		m.Dev.Mismatch = device.NominalMismatch()
	}
}
