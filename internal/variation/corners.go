package variation

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/device"
)

// Corner is a named die-level process corner with independent n- and
// p-channel shifts — the systematic component of variability that corner
// analysis sweeps while Monte Carlo handles the local part. "Slow" means
// higher threshold and lower current factor.
type Corner struct {
	Name string
	// DeltaVTN / DeltaVTP shift the thresholds in volts.
	DeltaVTN, DeltaVTP float64
	// BetaN / BetaP scale the current factors.
	BetaN, BetaP float64
}

// StandardCorners builds the five classic corners at the given sigma
// levels (typically the 3σ global spread): TT, SS, FF and the skewed SF
// (slow n, fast p) and FS corners that stress ratioed logic and SRAM
// hardest.
func StandardCorners(sigmaVT, sigmaBeta float64) []Corner {
	if sigmaVT < 0 || sigmaBeta < 0 {
		panic(fmt.Sprintf("variation: negative corner sigmas %g, %g", sigmaVT, sigmaBeta))
	}
	slowVT, fastVT := +sigmaVT, -sigmaVT
	slowB, fastB := 1-sigmaBeta, 1+sigmaBeta
	return []Corner{
		NominalCorner(),
		{Name: "SS", DeltaVTN: slowVT, DeltaVTP: slowVT, BetaN: slowB, BetaP: slowB},
		{Name: "FF", DeltaVTN: fastVT, DeltaVTP: fastVT, BetaN: fastB, BetaP: fastB},
		{Name: "SF", DeltaVTN: slowVT, DeltaVTP: fastVT, BetaN: slowB, BetaP: fastB},
		{Name: "FS", DeltaVTN: fastVT, DeltaVTP: slowVT, BetaN: fastB, BetaP: slowB},
	}
}

// Apply installs the corner on every MOSFET of the circuit, replacing any
// existing mismatch (corner analysis is run at the systematic point, with
// local variation off).
func (co Corner) Apply(c *circuit.Circuit) {
	for _, m := range c.MOSFETList() {
		mm := device.NominalMismatch()
		if m.Dev.Params.Type == device.PMOS {
			mm.DeltaVT0 = co.DeltaVTP
			mm.BetaFactor = co.BetaP
		} else {
			mm.DeltaVT0 = co.DeltaVTN
			mm.BetaFactor = co.BetaN
		}
		m.Dev.Mismatch = mm
	}
}

// CornerSweep evaluates a metric at every corner and returns the values in
// corner order; the circuit's mismatch state is reset to nominal
// afterwards.
func CornerSweep(c *circuit.Circuit, corners []Corner, metric func(*circuit.Circuit) (float64, error)) (map[string]float64, error) {
	out := make(map[string]float64, len(corners))
	defer ResetMismatch(c)
	for _, co := range corners {
		co.Apply(c)
		v, err := metric(c)
		if err != nil {
			return nil, fmt.Errorf("variation: corner %s: %w", co.Name, err)
		}
		out[co.Name] = v
	}
	return out, nil
}
