// Package digital provides the digital-side reliability vehicles of the
// paper: CMOS inverters with measured propagation delay, ring oscillators
// with transient-extracted frequency, and the delay/frequency degradation
// analysis ("digital circuits mostly suffer from a variable delay,
// reducing the overall operation speed" — §2; NBTI/HCI "translates to
// slower circuits" — §3).
package digital

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/emc"
)

// InverterSize is the device sizing of one inverter.
type InverterSize struct {
	// WN, WP are channel widths in metres; L is the channel length.
	WN, WP, L float64
}

// DefaultInverter returns a 2:1 P:N sized minimum-length inverter.
func DefaultInverter(tech *device.Technology) InverterSize {
	return InverterSize{WN: 1e-6, WP: 2e-6, L: tech.Lmin}
}

// addInverter wires one inverter from in to out and returns its devices.
func addInverter(c *circuit.Circuit, name, in, out, vdd string, tech *device.Technology, sz InverterSize) (mn, mp *circuit.MOSFET) {
	dn := device.NewMosfet(tech.NMOSParams(sz.WN, sz.L, 300))
	dp := device.NewMosfet(tech.PMOSParams(sz.WP, sz.L, 300))
	mn = c.AddMOSFET(name+"N", out, in, "0", "0", dn)
	mp = c.AddMOSFET(name+"P", out, in, vdd, vdd, dp)
	return mn, mp
}

// RingOscillator is an odd-stage inverter ring with per-stage load
// capacitors and a start-up kick source.
type RingOscillator struct {
	Circuit *circuit.Circuit
	Tech    *device.Technology
	Stages  int
	Size    InverterSize
	CLoad   float64
	// Nodes are the stage outputs, Nodes[0] is the observation node.
	Nodes []string
	// SupplyName names the VDD source (a knob can retune it).
	SupplyName string
}

// BuildRingOscillator constructs a ring of stages inverters (odd, ≥ 3) in
// the given technology with cload farads on every stage output.
func BuildRingOscillator(tech *device.Technology, stages int, sz InverterSize, cload float64) (*RingOscillator, error) {
	if stages < 3 || stages%2 == 0 {
		return nil, fmt.Errorf("digital: ring needs an odd stage count >= 3, got %d", stages)
	}
	if cload <= 0 {
		return nil, fmt.Errorf("digital: non-positive load %g", cload)
	}
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
	ro := &RingOscillator{
		Circuit: c, Tech: tech, Stages: stages, Size: sz, CLoad: cload,
		SupplyName: "VDD",
	}
	for i := 0; i < stages; i++ {
		ro.Nodes = append(ro.Nodes, fmt.Sprintf("n%d", i))
	}
	for i := 0; i < stages; i++ {
		in := ro.Nodes[(i+stages-1)%stages]
		out := ro.Nodes[i]
		addInverter(c, fmt.Sprintf("X%d", i), in, out, "vdd", tech, sz)
		c.AddCapacitor(fmt.Sprintf("CL%d", i), out, "0", cload)
	}
	// Start-up kick: the DC solution of a ring is the metastable mid-rail
	// point; a brief current pulse into stage 0 breaks the symmetry.
	c.AddISource("IKICK", "0", ro.Nodes[0], circuit.Pulse{
		Low: 0, High: 200e-6,
		Rise: 1e-12, Fall: 1e-12,
		Width: ro.estimateDelay() * 2,
	})
	return ro, nil
}

// estimateDelay returns a crude per-stage delay estimate C·VDD/(2·Idsat)
// used to size the transient window.
func (ro *RingOscillator) estimateDelay() float64 {
	probe := device.NewMosfet(ro.Tech.NMOSParams(ro.Size.WN, ro.Size.L, 300))
	idsat := probe.Eval(ro.Tech.VDD, ro.Tech.VDD, 0).ID
	if idsat <= 0 {
		return 1e-9
	}
	cgs, cgd := probe.GateCapacitance()
	ctot := ro.CLoad + 3*(cgs+cgd) // fan-out gate load, Miller-ish adder
	return ctot * ro.Tech.VDD / (2 * idsat)
}

// MeasureFrequency runs a transient long enough for several oscillation
// periods and extracts the frequency from the spacing of rising
// mid-supply crossings on stage 0. The devices' present damage state is in
// effect, so calling it before and after aging measures the degradation.
func (ro *RingOscillator) MeasureFrequency() (float64, error) {
	est := 2 * float64(ro.Stages) * ro.estimateDelay() // period estimate
	const settlePeriods, measurePeriods = 4, 8
	stop := est * (settlePeriods + measurePeriods) * 2 // ×2 safety for slow (aged) rings
	step := est / (float64(ro.Stages) * 12)
	wf, err := ro.Circuit.Transient(circuit.TranSpec{
		Stop: stop, Step: step,
		Integrator: circuit.Trapezoidal,
		Record:     []string{ro.Nodes[0]},
	})
	if err != nil {
		return 0, fmt.Errorf("digital: ring transient: %w", err)
	}
	crossings := emc.CrossingTimes(wf.Times, wf.Node(ro.Nodes[0]), ro.Tech.VDD/2, true)
	if len(crossings) < 4 {
		return 0, fmt.Errorf("digital: ring did not oscillate (%d crossings)", len(crossings))
	}
	// Average over the last few periods, skipping start-up.
	tail := crossings[len(crossings)/2:]
	if len(tail) < 2 {
		tail = crossings
	}
	period := (tail[len(tail)-1] - tail[0]) / float64(len(tail)-1)
	if period <= 0 {
		return 0, fmt.Errorf("digital: non-positive period %g", period)
	}
	return 1 / period, nil
}

// PropagationDelay drives a single loaded inverter with a full-swing pulse
// and measures the 50 %-to-50 % high-to-low and low-to-high delays.
func PropagationDelay(tech *device.Technology, sz InverterSize, cload float64) (tphl, tplh float64, err error) {
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
	probe := device.NewMosfet(tech.NMOSParams(sz.WN, sz.L, 300))
	idsat := probe.Eval(tech.VDD, tech.VDD, 0).ID
	cgs, cgd := probe.GateCapacitance()
	tEst := (cload + 3*(cgs+cgd)) * tech.VDD / (2 * idsat)
	half := 40 * tEst
	edge := tEst / 10
	c.AddVSource("VIN", "in", "0", circuit.Pulse{
		Low: 0, High: tech.VDD,
		Delay: half / 4, Rise: edge, Fall: edge,
		Width: half, Period: 2 * half,
	})
	addInverter(c, "X", "in", "out", "vdd", tech, sz)
	c.AddCapacitor("CL", "out", "0", cload)
	wf, err := c.Transient(circuit.TranSpec{
		Stop: 2 * half, Step: tEst / 25,
		Integrator: circuit.Trapezoidal,
		Record:     []string{"in", "out"},
	})
	if err != nil {
		return 0, 0, fmt.Errorf("digital: delay transient: %w", err)
	}
	mid := tech.VDD / 2
	inRise := emc.CrossingTimes(wf.Times, wf.Node("in"), mid, true)
	inFall := emc.CrossingTimes(wf.Times, wf.Node("in"), mid, false)
	outFall := emc.CrossingTimes(wf.Times, wf.Node("out"), mid, false)
	outRise := emc.CrossingTimes(wf.Times, wf.Node("out"), mid, true)
	if len(inRise) == 0 || len(inFall) == 0 || len(outFall) == 0 || len(outRise) == 0 {
		return 0, 0, fmt.Errorf("digital: missing transitions (in %d/%d, out %d/%d)",
			len(inRise), len(inFall), len(outFall), len(outRise))
	}
	tphl = firstAfter(outFall, inRise[0]) - inRise[0]
	tplh = firstAfter(outRise, inFall[0]) - inFall[0]
	if tphl <= 0 || tplh <= 0 {
		return 0, 0, fmt.Errorf("digital: non-causal delays tphl=%g tplh=%g", tphl, tplh)
	}
	return tphl, tplh, nil
}

// firstAfter returns the first crossing at or after t (NaN when none).
func firstAfter(xs []float64, t float64) float64 {
	for _, x := range xs {
		if x >= t {
			return x
		}
	}
	return math.NaN()
}
