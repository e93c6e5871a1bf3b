package emc

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
)

// CrossingTimes returns the interpolated times at which values crosses
// threshold in the given direction. times and values must be parallel.
func CrossingTimes(times, values []float64, threshold float64, rising bool) []float64 {
	if len(times) != len(values) {
		panic("emc: CrossingTimes length mismatch")
	}
	var out []float64
	for i := 1; i < len(values); i++ {
		a, b := values[i-1], values[i]
		hit := false
		if rising {
			hit = a < threshold && b >= threshold
		} else {
			hit = a > threshold && b <= threshold
		}
		if hit {
			f := (threshold - a) / (b - a)
			out = append(out, times[i-1]+f*(times[i]-times[i-1]))
		}
	}
	return out
}

// CountTransitions counts full logic swings in values using hysteresis: a
// transition is registered when the signal crosses from below lo to above
// hi or vice versa. This is the "false switching events" detector of the
// paper's digital EMC discussion.
func CountTransitions(values []float64, lo, hi float64) int {
	if hi <= lo {
		panic(fmt.Sprintf("emc: invalid hysteresis window [%g, %g]", lo, hi))
	}
	const (
		stUnknown = iota
		stLow
		stHigh
	)
	state := stUnknown
	count := 0
	for _, v := range values {
		switch {
		case v <= lo:
			if state == stHigh {
				count++
			}
			state = stLow
		case v >= hi:
			if state == stLow {
				count++
			}
			state = stHigh
		}
	}
	return count
}

// NoiseMargins extracts (NML, NMH) from a static transfer curve sampled at
// (vin, vout): VIL and VIH are the unity-gain points (|dVout/dVin| = 1),
// VOL/VOH the output levels beyond them. The curve must be a falling
// inverter VTC.
//
// paper: §4 — TestNoiseMarginsFromVTC asserts that a simulated inverter
// VTC leaves positive low and high margins, the static immunity that
// interference must overcome to cause false switching.
func NoiseMargins(vin, vout []float64) (nml, nmh float64, err error) {
	if len(vin) != len(vout) || len(vin) < 5 {
		return 0, 0, fmt.Errorf("emc: need a sampled VTC of at least 5 points")
	}
	// Locate unity-gain points by scanning the discrete slope.
	vil, vih := math.NaN(), math.NaN()
	for i := 1; i < len(vin); i++ {
		slope := (vout[i] - vout[i-1]) / (vin[i] - vin[i-1])
		if math.IsNaN(vil) && slope <= -1 {
			vil = vin[i-1]
		}
		if !math.IsNaN(vil) && math.IsNaN(vih) && slope > -1 {
			vih = vin[i]
		}
	}
	if math.IsNaN(vil) || math.IsNaN(vih) {
		return 0, 0, fmt.Errorf("emc: VTC has no high-gain region")
	}
	voh := vout[0]           // output with input low
	vol := vout[len(vout)-1] // output with input high
	nml = vil - vol
	nmh = voh - vih
	return nml, nmh, nil
}

// InverterJitter measures EMI-induced jitter on a CMOS inverter: the input
// ramps through the switching threshold while EMI rides on it at nPhases
// different phases; the spread (max−min) of the output crossing time is
// the peak-to-peak jitter. Returns the jitter in seconds.
func InverterJitter(tech *device.Technology, inj Injection, rampTime float64, nPhases int) (float64, error) {
	if nPhases < 2 {
		return 0, fmt.Errorf("emc: need at least 2 phases")
	}
	vdd := tech.VDD
	var crossings []float64
	for p := 0; p < nPhases; p++ {
		phase := 2 * math.Pi * float64(p) / float64(nPhases)
		c := circuit.New()
		c.AddVSource("VDD", "vdd", "0", circuit.DC(vdd))
		ramp := circuit.PWL{
			Times:  []float64{0, rampTime},
			Values: []float64{0, vdd},
		}
		c.AddVSource("VIN", "in", "0", circuit.Sum{
			ramp,
			circuit.Sine{Ampl: inj.Ampl, Freq: inj.Freq, Phase: phase},
		})
		mn := device.NewMosfet(tech.NMOSParams(1e-6, tech.Lmin, 300))
		mp := device.NewMosfet(tech.PMOSParams(2e-6, tech.Lmin, 300))
		c.AddMOSFET("MN", "out", "in", "0", "0", mn)
		c.AddMOSFET("MP", "out", "in", "vdd", "vdd", mp)
		c.AddCapacitor("CL", "out", "0", 10e-15)
		wf, err := c.Transient(circuit.TranSpec{
			Stop: rampTime, Step: rampTime / 2000,
			Integrator: circuit.Trapezoidal,
			Record:     []string{"out"},
		})
		if err != nil {
			return 0, fmt.Errorf("emc: jitter transient (phase %d): %w", p, err)
		}
		xs := CrossingTimes(wf.Times, wf.Node("out"), vdd/2, false)
		if len(xs) == 0 {
			return 0, fmt.Errorf("emc: inverter never switched (phase %d)", p)
		}
		crossings = append(crossings, xs[0])
	}
	lo, hi := crossings[0], crossings[0]
	for _, x := range crossings[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return hi - lo, nil
}

// FalseSwitchCount drives a CMOS inverter with a static low input plus EMI
// and counts output transitions over cycles EMI periods — zero for an
// immune gate, growing once the disturbance exceeds the noise margin.
func FalseSwitchCount(tech *device.Technology, inj Injection, cycles int) (int, error) {
	vdd := tech.VDD
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(vdd))
	c.AddVSource("VIN", "in", "0", circuit.Sum{
		circuit.DC(0.1 * vdd),
		circuit.Sine{Ampl: inj.Ampl, Freq: inj.Freq},
	})
	mn := device.NewMosfet(tech.NMOSParams(1e-6, tech.Lmin, 300))
	mp := device.NewMosfet(tech.PMOSParams(2e-6, tech.Lmin, 300))
	c.AddMOSFET("MN", "out", "in", "0", "0", mn)
	c.AddMOSFET("MP", "out", "in", "vdd", "vdd", mp)
	c.AddCapacitor("CL", "out", "0", 5e-15)
	period := 1 / inj.Freq
	wf, err := c.Transient(circuit.TranSpec{
		Stop: float64(cycles) * period, Step: period / 128,
		Integrator: circuit.Trapezoidal,
		Record:     []string{"out"},
	})
	if err != nil {
		return 0, fmt.Errorf("emc: false-switch transient: %w", err)
	}
	return CountTransitions(wf.Node("out"), 0.2*vdd, 0.8*vdd), nil
}
