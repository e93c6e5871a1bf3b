package core

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
)

// Sensitivity quantifies how strongly one device's threshold shift moves a
// circuit metric — the design-time analysis §6 of the paper calls for:
// knowing which transistor dominates the degradation of each performance
// lets the designer guard exactly there (sizing, stress relief, or a
// knob).
type Sensitivity struct {
	// Device is the MOSFET element name.
	Device string
	// DMetricDVT is ∂(metric)/∂(ΔVT) in metric-units per volt.
	DMetricDVT float64
}

// VTSensitivities perturbs each MOSFET's threshold by deltaVT (a small
// positive value, e.g. 1 mV) one at a time and returns the centred
// finite-difference sensitivity of the metric, sorted by descending
// magnitude. The circuit's damage state is restored afterwards.
//
// paper: §6 — TestVTSensitivitiesIdentifyCriticalDevice asserts that the
// analysis singles out the device that dominates the metric.
func VTSensitivities(c *circuit.Circuit, metric func(*circuit.Circuit) (float64, error), deltaVT float64) ([]Sensitivity, error) {
	if deltaVT <= 0 {
		return nil, fmt.Errorf("core: perturbation must be positive, got %g", deltaVT)
	}
	mosfets := c.MOSFETList()
	if len(mosfets) == 0 {
		return nil, fmt.Errorf("core: circuit has no MOSFETs")
	}
	out := make([]Sensitivity, 0, len(mosfets))
	for _, m := range mosfets {
		saved := m.Dev.Damage
		perturb := func(sign float64) (float64, error) {
			d := saved
			d.DeltaVT += sign * deltaVT
			m.Dev.Damage = d
			defer func() { m.Dev.Damage = saved }()
			return metric(c)
		}
		plus, err := perturb(+1)
		if err != nil {
			return nil, fmt.Errorf("core: sensitivity of %s (+): %w", m.Name(), err)
		}
		minus, err := perturb(-1)
		if err != nil {
			return nil, fmt.Errorf("core: sensitivity of %s (-): %w", m.Name(), err)
		}
		out = append(out, Sensitivity{
			Device:     m.Name(),
			DMetricDVT: (plus - minus) / (2 * deltaVT),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		return abs(out[i].DMetricDVT) > abs(out[j].DMetricDVT)
	})
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
