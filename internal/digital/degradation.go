package digital

import (
	"fmt"

	"repro/internal/aging"
)

// DegradationResult compares a ring oscillator before and after a mission.
type DegradationResult struct {
	// FreshHz and AgedHz are the measured oscillation frequencies.
	FreshHz, AgedHz float64
	// SlowdownPct = 100·(fresh−aged)/fresh.
	SlowdownPct float64
	// WorstDeltaVT is the largest threshold shift across ring devices.
	WorstDeltaVT float64
}

// AgeRing ages the ring oscillator's devices over a mission of the given
// length and temperature and measures the frequency before and after. In
// a free-running ring every gate sees ~50 % signal duty, which is what the
// BTI duty model receives; the stress bias is the full rail (each device's
// gate swings rail to rail).
func AgeRing(ro *RingOscillator, missionSeconds, tempK float64, models aging.Models, seed uint64) (*DegradationResult, error) {
	fresh, err := ro.MeasureFrequency()
	if err != nil {
		return nil, fmt.Errorf("digital: fresh frequency: %w", err)
	}
	ager := aging.NewCircuitAger(ro.Circuit, models, tempK, seed)
	vdd := ro.Tech.VDD
	// Rail-to-rail switching stress at 50 % duty for every device. The
	// operating-point extraction would see the metastable mid-rail DC
	// solution, which is not what a toggling gate experiences, so the
	// stress is imposed explicitly.
	for _, m := range ro.Circuit.MOSFETList() {
		vgs := vdd
		if m.Dev.Params.Type.String() == "pmos" {
			vgs = -vdd
		}
		st := aging.Stress{Vgs: vgs, Vds: vgs, Duty: 0.5, TempK: tempK}
		ager.Ager(m.Name()).Step(st, missionSeconds)
	}
	res := &DegradationResult{FreshHz: fresh}
	for _, m := range ro.Circuit.MOSFETList() {
		if dvt := m.Dev.Damage.DeltaVT; dvt > res.WorstDeltaVT {
			res.WorstDeltaVT = dvt
		}
	}
	aged, err := ro.MeasureFrequency()
	if err != nil {
		return nil, fmt.Errorf("digital: aged frequency: %w", err)
	}
	res.AgedHz = aged
	res.SlowdownPct = 100 * (fresh - aged) / fresh
	return res, nil
}
