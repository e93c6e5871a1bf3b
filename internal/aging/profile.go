package aging

import "fmt"

// MissionPhase is one leg of a temperature/duty mission profile — e.g. an
// automotive profile alternating cold start, highway cruise and
// under-hood soak. Degradation models see each phase's temperature and
// the phase-local duty override.
type MissionPhase struct {
	// Duration in seconds.
	Duration float64
	// TempK is the junction temperature during this phase.
	TempK float64
	// Checkpoints subdivides the phase (≥1); stress is re-extracted at
	// each.
	Checkpoints int
	// Duty optionally overrides per-device duty during this phase.
	Duty map[string]float64
}

// AgeProfile walks the circuit through a multi-phase mission, re-solving
// the operating point and re-extracting stress at every checkpoint. The
// returned trajectory carries absolute mission time.
//
// paper: §3.3 — TestAgeProfileHotPhaseAgesMore and TestAgeProfileDutyPerPhase
// assert the temperature and duty-cycle dependence of the degradation.
func (a *CircuitAger) AgeProfile(phases []MissionPhase) ([]Checkpoint, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("aging: empty mission profile")
	}
	for i, p := range phases {
		if p.Duration <= 0 {
			return nil, fmt.Errorf("aging: phase %d has non-positive duration", i)
		}
		if p.TempK <= 0 {
			return nil, fmt.Errorf("aging: phase %d has non-positive temperature", i)
		}
		if p.Checkpoints < 1 {
			return nil, fmt.Errorf("aging: phase %d needs at least one checkpoint", i)
		}
	}
	sol, err := a.Circuit.OperatingPoint()
	if err != nil {
		return nil, fmt.Errorf("aging: fresh operating point: %w", err)
	}
	traj := []Checkpoint{{Time: 0, Solution: sol}}
	savedTemp := a.TempK
	savedDuty := a.DutyOverride
	defer func() {
		a.TempK = savedTemp
		a.DutyOverride = savedDuty
	}()

	now := 0.0
	for _, p := range phases {
		a.TempK = p.TempK
		a.DutyOverride = p.Duty
		dt := p.Duration / float64(p.Checkpoints)
		for k := 0; k < p.Checkpoints; k++ {
			stress := ExtractStressOP(a.Circuit, a.TempK)
			for name, ager := range a.agers {
				s := stress[name]
				if a.DutyOverride != nil {
					if d, ok := a.DutyOverride[name]; ok {
						s.Duty = d
					}
				}
				ager.Step(s, dt)
			}
			now += dt
			sol, err := a.Circuit.OperatingPoint()
			if err != nil {
				traj = append(traj, Checkpoint{Time: now, Failed: true})
				continue
			}
			traj = append(traj, Checkpoint{Time: now, Solution: sol})
		}
	}
	return traj, nil
}
