package aging

import (
	"fmt"

	"repro/internal/mathx"
)

// Phase is one leg of a stress/relax schedule.
type Phase struct {
	// Duration in seconds.
	Duration float64
	// Stressed marks the gate as biased (stress accumulates); otherwise
	// the device relaxes.
	Stressed bool
}

// TracePoint is one sample of a time-resolved degradation trace.
type TracePoint struct {
	// T is absolute time in seconds.
	T float64
	// DeltaVT is the instantaneous threshold shift in volts.
	DeltaVT float64
	// Stressed echoes the phase the sample belongs to.
	Stressed bool
}

// NBTITrace produces the time-resolved ΔVT waveform of a device walked
// through an arbitrary stress/relax schedule — the classic sawtooth of
// dynamic-NBTI measurements ([10] Chen et al.): growth along the power law
// while stressed, logarithmic-like decay of the recoverable component
// while relaxed, with the permanent component ratcheting upward.
// samplesPerPhase sets the time resolution inside each phase (log-spaced
// within relaxation phases, where the action spans decades).
//
// paper: §3.3 — TestNBTITraceSawtooth asserts growth under stress, partial
// relaxation and a ratcheting permanent component.
func NBTITrace(m *NBTIModel, eox, tempK float64, schedule []Phase, samplesPerPhase int) ([]TracePoint, error) {
	if len(schedule) == 0 {
		return nil, fmt.Errorf("aging: empty schedule")
	}
	if samplesPerPhase < 2 {
		return nil, fmt.Errorf("aging: need at least 2 samples per phase")
	}
	for i, p := range schedule {
		if p.Duration <= 0 {
			return nil, fmt.Errorf("aging: phase %d has non-positive duration", i)
		}
	}
	var (
		out        []TracePoint
		now        float64
		stressTime float64 // accumulated effective stress time
		perm, rec  float64 // current components
	)
	k := func() float64 { return m.prefactor(eox, tempK) }
	for _, p := range schedule {
		if p.Stressed {
			// The recoverable part refills quickly on re-stress: resume
			// the power law from the equivalent time of the *current*
			// total, then grow.
			times := mathx.Linspace(0, p.Duration, samplesPerPhase)
			for _, dt := range times[1:] {
				total := advancePowerLaw(perm+rec, k(), m.N, dt)
				out = append(out, TracePoint{T: now + dt, DeltaVT: total, Stressed: true})
			}
			total := advancePowerLaw(perm+rec, k(), m.N, p.Duration)
			perm = m.PermFrac * total
			rec = (1 - m.PermFrac) * total
			stressTime += p.Duration
			now += p.Duration
		} else {
			if stressTime == 0 {
				// Nothing to relax yet; flat zero segment.
				out = append(out, TracePoint{T: now + p.Duration, DeltaVT: 0})
				now += p.Duration
				continue
			}
			// Log-spaced samples capture the decades-spanning decay.
			recAtPhaseStart := rec
			times := mathx.Logspace(p.Duration/1e4, p.Duration, samplesPerPhase)
			for _, dt := range times {
				r := m.RelaxFactor(stressTime, dt)
				out = append(out, TracePoint{T: now + dt, DeltaVT: perm + recAtPhaseStart*r})
			}
			rec = recAtPhaseStart * m.RelaxFactor(stressTime, p.Duration)
			now += p.Duration
		}
	}
	return out, nil
}

// PeriodicSchedule builds an n-cycle square schedule with the given period
// and stress duty factor — the AC-stress pattern of §3.3.
//
// paper: §3.3 — TestPeriodicTraceBelowDC asserts that AC stress shifts VT
// less than DC stress.
func PeriodicSchedule(period, duty float64, cycles int) ([]Phase, error) {
	if period <= 0 || duty <= 0 || duty >= 1 || cycles < 1 {
		return nil, fmt.Errorf("aging: bad periodic schedule (period=%g duty=%g cycles=%d)", period, duty, cycles)
	}
	out := make([]Phase, 0, 2*cycles)
	for i := 0; i < cycles; i++ {
		out = append(out,
			Phase{Duration: duty * period, Stressed: true},
			Phase{Duration: (1 - duty) * period, Stressed: false},
		)
	}
	return out, nil
}
