// Package emc implements the electromagnetic-compatibility analysis of the
// paper's Section 4: conducted EMI injection on a supply or input, the
// rectification mechanism by which circuit nonlinearity pumps a DC
// operating point away from its quiet value (Figs. 3-4), DPI-style
// amplitude/frequency susceptibility sweeps, and digital immunity metrics
// (jitter, noise margins, false switching).
package emc

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/obs"
)

// Injection describes one conducted-EMI disturbance superimposed on a
// source: a sinusoid of amplitude Ampl volts at Freq hertz, per the
// IEC 62132 conducted-immunity picture (150 kHz – 1 GHz in the standard).
type Injection struct {
	Ampl float64
	Freq float64
}

// Metric reduces a transient waveform set to a scalar (e.g. mean output
// current). It sees only samples from startIdx on, i.e. after settling.
type Metric func(wf *circuit.Waveforms, startIdx int) float64

// MeanResistorCurrent returns a Metric measuring the average current
// through a resistor connected between nodes a and b (flowing a→b).
func MeanResistorCurrent(a, b string, r float64) Metric {
	return func(wf *circuit.Waveforms, start int) float64 {
		va := wf.Node(a)[start:]
		vb := wf.Node(b)[start:]
		sum := 0.0
		for i := range va {
			sum += (va[i] - vb[i]) / r
		}
		return sum / float64(len(va))
	}
}

// Options tunes the EMI transient measurement.
type Options struct {
	// SettleCycles are EMI periods simulated before measurement starts.
	SettleCycles int
	// MeasureCycles are EMI periods averaged into the metric.
	MeasureCycles int
	// StepsPerCycle is the time resolution.
	StepsPerCycle int
	// Integrator defaults to Trapezoidal (waveform fidelity matters for
	// rectification).
	Integrator circuit.Integrator
	// Record lists the nodes the metric needs.
	Record []string
}

// DefaultOptions returns sensible defaults: 6 settle cycles, 10 measured,
// 64 steps per cycle, trapezoidal integration.
func DefaultOptions(record ...string) Options {
	return Options{
		SettleCycles:  6,
		MeasureCycles: 10,
		StepsPerCycle: 64,
		Integrator:    circuit.Trapezoidal,
		Record:        record,
	}
}

// Result is one susceptibility measurement.
type Result struct {
	// Baseline is the metric with no EMI applied.
	Baseline float64
	// Disturbed is the metric under EMI.
	Disturbed float64
	// Shift = Disturbed − Baseline: the EMI-induced DC operating-point
	// shift the paper identifies as the major analog failure mechanism.
	Shift float64
}

// MeasureRectification injects EMI in series with the named voltage source
// and returns the metric's baseline, disturbed value and shift. The
// source's waveform is restored before returning.
func MeasureRectification(c *circuit.Circuit, sourceName string, inj Injection, metric Metric, opts Options) (Result, error) {
	if m := met.Load(); m != nil {
		m.rectifySweeps.Inc()
		sp := obs.StartSpan(m.rectifySecs)
		defer func() { sp.End() }()
	}
	if inj.Freq <= 0 {
		return Result{}, fmt.Errorf("emc: non-positive EMI frequency %g", inj.Freq)
	}
	if opts.StepsPerCycle < 8 {
		return Result{}, fmt.Errorf("emc: StepsPerCycle %d too coarse", opts.StepsPerCycle)
	}
	src, err := c.VSourceByName(sourceName)
	if err != nil {
		return Result{}, err
	}

	period := 1 / inj.Freq
	step := period / float64(opts.StepsPerCycle)
	total := float64(opts.SettleCycles+opts.MeasureCycles) * period
	startIdx := opts.SettleCycles * opts.StepsPerCycle

	run := func() (float64, error) {
		wf, err := c.Transient(circuit.TranSpec{
			Stop: total, Step: step,
			Integrator: opts.Integrator,
			Record:     opts.Record,
		})
		if err != nil {
			return 0, err
		}
		return metric(wf, startIdx), nil
	}

	// Baseline: same transient, no EMI — eliminates integrator bias from
	// the comparison.
	baseline, err := run()
	if err != nil {
		return Result{}, fmt.Errorf("emc: baseline transient: %w", err)
	}

	orig := src.W
	src.W = circuit.Sum{orig, circuit.Sine{Ampl: inj.Ampl, Freq: inj.Freq}}
	disturbed, err := run()
	src.W = orig
	if err != nil {
		return Result{}, fmt.Errorf("emc: disturbed transient: %w", err)
	}
	return Result{Baseline: baseline, Disturbed: disturbed, Shift: disturbed - baseline}, nil
}

// SweepResult is a DPI-style susceptibility map: Shift[i][j] is the DC
// shift at Ampls[i], Freqs[j].
type SweepResult struct {
	Ampls []float64
	Freqs []float64
	Shift [][]float64
	// Baseline is the quiet metric value (frequency-independent).
	Baseline float64
}

// WorstShift returns the largest |shift| in the map and its location.
func (s *SweepResult) WorstShift() (shift float64, ampl, freq float64) {
	worst := 0.0
	var wa, wf float64
	for i, row := range s.Shift {
		for j, v := range row {
			if math.Abs(v) > math.Abs(worst) {
				worst, wa, wf = v, s.Ampls[i], s.Freqs[j]
			}
		}
	}
	return worst, wa, wf
}

// SweepEMI measures the DC shift over an amplitude × frequency grid — the
// data behind Fig. 4 ("the error in output current depends on the
// amplitude and the frequency of the interference signal").
func SweepEMI(c *circuit.Circuit, sourceName string, ampls, freqs []float64, metric Metric, opts Options) (*SweepResult, error) {
	if len(ampls) == 0 || len(freqs) == 0 {
		return nil, fmt.Errorf("emc: empty sweep grid")
	}
	out := &SweepResult{Ampls: ampls, Freqs: freqs}
	out.Shift = make([][]float64, len(ampls))
	for i, a := range ampls {
		out.Shift[i] = make([]float64, len(freqs))
		for j, f := range freqs {
			r, err := MeasureRectification(c, sourceName, Injection{Ampl: a, Freq: f}, metric, opts)
			if err != nil {
				return nil, fmt.Errorf("emc: sweep point (%g V, %g Hz): %w", a, f, err)
			}
			out.Shift[i][j] = r.Shift
			out.Baseline = r.Baseline
			if m := met.Load(); m != nil {
				m.sweepPoints.Inc()
			}
		}
	}
	return out, nil
}

// CurrentReference is the Fig. 3 testbench: a resistor-fed NMOS current
// mirror with a dedicated EMI injection port capacitively coupled onto the
// mirror gate — the dominant conducted-coupling path in real layouts. The
// square-law nonlinearity of the diode-connected master rectifies the gate
// ripple and pumps the mean output current away from its quiet value, and
// the output clips against the load, exactly the Fig. 4 mechanism. The
// optional gate filter capacitor is the paper's "filtering that harms EMC"
// element: it stores the pumped voltage instead of restoring the bias.
type CurrentReference struct {
	Circuit *circuit.Circuit
	// InjectName is the VSource the EMI disturbance is superimposed on
	// (an otherwise quiet injection port coupled through CC).
	InjectName string
	// OutNode carries the output branch; IOUT flows through RLoad from
	// the supply rail node to OutNode.
	OutNode string
	// RailNode is the internal supply rail node name.
	RailNode string
	// RLoad is the load resistance used to infer IOUT.
	RLoad float64
}

// BuildCurrentReference constructs the testbench in the given technology.
// withFilterCap adds the gate capacitor of Fig. 3.
func BuildCurrentReference(tech *device.Technology, withFilterCap bool) *CurrentReference {
	c := circuit.New()
	c.AddVSource("VSUP", "rail", "0", circuit.DC(tech.VDD))
	c.AddVSource("VEMI", "emi", "0", circuit.DC(0))
	c.AddCapacitor("CC", "emi", "gate", 10e-12) // parasitic coupling path
	c.AddResistor("RREF", "rail", "gate", 30e3)
	m1 := device.NewMosfet(tech.NMOSParams(2e-6, 4*tech.Lmin, 300))
	m2 := device.NewMosfet(tech.NMOSParams(2e-6, 4*tech.Lmin, 300))
	c.AddMOSFET("M1", "gate", "gate", "0", "0", m1)
	c.AddMOSFET("M2", "out", "gate", "0", "0", m2)
	const rload = 10e3
	c.AddResistor("RLOAD", "rail", "out", rload)
	if withFilterCap {
		c.AddCapacitor("CFILT", "gate", "0", 20e-12)
	}
	return &CurrentReference{
		Circuit:    c,
		InjectName: "VEMI",
		OutNode:    "out",
		RailNode:   "rail",
		RLoad:      rload,
	}
}

// OutputCurrentMetric returns the Metric measuring the reference's mean
// output current.
func (cr *CurrentReference) OutputCurrentMetric() Metric {
	return MeanResistorCurrent(cr.RailNode, cr.OutNode, cr.RLoad)
}

// RecordNodes lists the nodes the output metric needs.
func (cr *CurrentReference) RecordNodes() []string {
	return []string{cr.RailNode, cr.OutNode}
}
