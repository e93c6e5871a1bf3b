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

// GlobalCorner is a die-to-die process shift applied identically to every
// device on a die (systematic component; the local Pelgrom part rides on
// top).
type GlobalCorner struct {
	// DeltaVT0 shifts every threshold in volts.
	DeltaVT0 float64
	// BetaFactor scales every current factor.
	BetaFactor float64
}

// NominalCorner returns the typical-typical corner.
func NominalCorner() GlobalCorner { return GlobalCorner{BetaFactor: 1} }

// SampleGlobalCorner draws a die-level corner with the given sigmas.
func SampleGlobalCorner(sigmaVT, sigmaBeta float64, rng *mathx.RNG) GlobalCorner {
	return GlobalCorner{
		DeltaVT0:   sigmaVT * rng.Norm(),
		BetaFactor: 1 + sigmaBeta*rng.Norm(),
	}
}

// ApplyRandomMismatch samples fresh local mismatch for every MOSFET in the
// circuit on top of the given global corner. Existing damage is preserved.
func ApplyRandomMismatch(c *circuit.Circuit, tech *device.Technology, corner GlobalCorner, rng *mathx.RNG) {
	for _, m := range c.MOSFETList() {
		mm := SampleMismatch(tech, m.Dev.Params.W, m.Dev.Params.L, rng)
		mm.DeltaVT0 += corner.DeltaVT0
		mm.BetaFactor *= corner.BetaFactor
		m.Dev.Mismatch = mm
	}
}

// ResetMismatch restores every MOSFET in the circuit to nominal.
func ResetMismatch(c *circuit.Circuit) {
	for _, m := range c.MOSFETList() {
		m.Dev.Mismatch = device.NominalMismatch()
	}
}
