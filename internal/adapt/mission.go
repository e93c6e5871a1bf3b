package adapt

import (
	"fmt"
	"math"

	"repro/internal/aging"
)

// MissionPoint is one checkpoint of a lifetime run.
type MissionPoint struct {
	// Time is the mission age in seconds.
	Time float64
	// InSpec reports whether all monitored specs held at this age.
	InSpec bool
	// Values are the monitor readings.
	Values []float64
	// KnobIndices snapshots the applied configuration (nil for static
	// runs).
	KnobIndices []int
	// Cost is the residual spec-violation cost.
	Cost float64
}

// MissionResult is a full lifetime trajectory.
type MissionResult struct {
	Points []MissionPoint
	// Adaptive records whether the controller was re-tuning.
	Adaptive bool
}

// TimeToFailure returns the first checkpoint time at which the system left
// spec, or +Inf if it survived the whole mission.
func (m *MissionResult) TimeToFailure() float64 {
	for _, p := range m.Points {
		if !p.InSpec {
			return p.Time
		}
	}
	return math.Inf(1)
}

// SurvivedCheckpoints counts in-spec checkpoints.
//
// paper: §5.2 — TestAdaptiveOutlivesStatic asserts that the adaptive
// design stays in spec at more checkpoints than the static one (Fig. 6).
func (m *MissionResult) SurvivedCheckpoints() int {
	n := 0
	for _, p := range m.Points {
		if p.InSpec {
			n++
		}
	}
	return n
}

// RunMission ages the circuit along checkpoints. When adaptive is true the
// controller re-tunes at every checkpoint (including t=0); otherwise the
// knobs stay at their initial configuration and the monitors just watch.
// The circuit inside ager must be the one the controller's knobs and
// monitors are bound to.
func RunMission(ager *aging.CircuitAger, ctrl *Controller, checkpoints []float64, adaptive bool) (*MissionResult, error) {
	if len(checkpoints) == 0 {
		return nil, fmt.Errorf("adapt: no checkpoints")
	}
	res := &MissionResult{Adaptive: adaptive}

	observe := func(t float64) error {
		var pt MissionPoint
		pt.Time = t
		if adaptive {
			tr, err := ctrl.Tune(ager.Circuit)
			if err != nil {
				pt.InSpec = false
				pt.Cost = math.Inf(1)
				res.Points = append(res.Points, pt)
				return nil
			}
			pt.InSpec = tr.InSpec
			pt.Values = tr.Values
			pt.Cost = tr.Cost
			idx := make([]int, len(ctrl.Knobs))
			for i, k := range ctrl.Knobs {
				idx[i] = k.Index()
			}
			pt.KnobIndices = idx
		} else {
			values, cost, err := ctrl.Evaluate(ager.Circuit)
			if err != nil {
				pt.InSpec = false
				pt.Cost = math.Inf(1)
				res.Points = append(res.Points, pt)
				return nil
			}
			pt.InSpec = cost == 0
			pt.Values = values
			pt.Cost = cost
		}
		res.Points = append(res.Points, pt)
		return nil
	}

	if err := observe(0); err != nil {
		return nil, err
	}
	prev := 0.0
	for _, t := range checkpoints {
		if t <= prev {
			return nil, fmt.Errorf("adapt: checkpoints must increase (got %g after %g)", t, prev)
		}
		// Solve the OP at the applied configuration so stress extraction
		// sees the true bias, then age the interval.
		if _, err := ager.Circuit.OperatingPoint(); err == nil {
			stress := aging.ExtractStressOP(ager.Circuit, ager.TempK)
			for _, name := range ager.SortedAgerNames() {
				s := stress[name]
				if ager.DutyOverride != nil {
					if d, ok := ager.DutyOverride[name]; ok {
						s.Duty = d
					}
				}
				ager.Ager(name).Step(s, t-prev)
			}
		}
		prev = t
		if err := observe(t); err != nil {
			return nil, err
		}
	}
	return res, nil
}
