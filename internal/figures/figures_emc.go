package figures

import (
	"fmt"
	"strings"

	"repro/internal/device"
	"repro/internal/emc"
	"repro/internal/report"
)

// Fig3Result is the current-reference testbench of Fig. 3: the quiet bias
// point with and without the gate filter capacitor.
type Fig3Result struct {
	// IOutQuiet is the undisturbed output current in amperes.
	IOutQuiet float64
	// VGate is the mirror gate bias.
	VGate float64
	// Elements lists the netlist contents.
	Elements []string
}

// Fig3 builds and solves the Fig. 3 circuit.
func Fig3() (*Fig3Result, string) {
	tech := device.MustTech("180nm")
	cr := emc.BuildCurrentReference(tech, true)
	sol, err := cr.Circuit.OperatingPoint()
	must("Fig3 bias point", err)
	res := &Fig3Result{
		IOutQuiet: (sol.Voltage(cr.RailNode) - sol.Voltage(cr.OutNode)) / cr.RLoad,
		VGate:     sol.Voltage("gate"),
		Elements:  cr.Circuit.ElementNames(),
	}
	var b strings.Builder
	b.WriteString("Fig. 3 — EMI-coupled current reference (filter cap on mirror gate)\n")
	t := report.NewTable("", "quantity", "value")
	t.AddRow("technology", tech.Name)
	t.AddRow("elements", fmt.Sprintf("%v", res.Elements))
	t.AddRow("V(gate)", report.SI(res.VGate, "V"))
	t.AddRow("IOUT (quiet)", report.SI(res.IOutQuiet, "A"))
	b.WriteString(t.String())
	return res, b.String()
}

// Fig4Result is the EMI susceptibility map: output-current shift vs
// interference amplitude and frequency.
type Fig4Result struct {
	Sweep *emc.SweepResult
	// FilterSweep is the same grid with the gate filter capacitor removed.
	FilterlessShiftAtWorst float64
	// WorstShift is the largest |ΔIOUT| in the filtered circuit.
	WorstShift float64
	// WorstAmpl / WorstFreq locate it.
	WorstAmpl, WorstFreq float64
	// MonotoneInAmplitude reports whether |shift| grows with amplitude at
	// every frequency (the Fig. 4 message).
	MonotoneInAmplitude bool
}

// Fig4 sweeps EMI amplitude and frequency on the Fig. 3 reference and
// measures the mean output-current shift.
func Fig4(ampls, freqs []float64) (*Fig4Result, string) {
	tech := device.MustTech("180nm")
	cr := emc.BuildCurrentReference(tech, true)
	opts := emc.DefaultOptions(cr.RecordNodes()...)
	sw, err := emc.SweepEMI(cr.Circuit, cr.InjectName, ampls, freqs, cr.OutputCurrentMetric(), opts)
	must("Fig4 sweep", err)
	res := &Fig4Result{Sweep: sw, MonotoneInAmplitude: true}
	res.WorstShift, res.WorstAmpl, res.WorstFreq = sw.WorstShift()
	for j := range freqs {
		for i := 1; i < len(ampls); i++ {
			if abs(sw.Shift[i][j]) < abs(sw.Shift[i-1][j]) {
				res.MonotoneInAmplitude = false
			}
		}
	}
	// Comparison circuit without the filter capacitor at the worst point.
	crNF := emc.BuildCurrentReference(tech, false)
	r, err := emc.MeasureRectification(crNF.Circuit, crNF.InjectName,
		emc.Injection{Ampl: res.WorstAmpl, Freq: res.WorstFreq},
		crNF.OutputCurrentMetric(), emc.DefaultOptions(crNF.RecordNodes()...))
	must("Fig4 filterless comparison", err)
	res.FilterlessShiftAtWorst = r.Shift

	var b strings.Builder
	b.WriteString("Fig. 4 — EMI-induced DC shift of the reference output current\n")
	t := report.NewTable("", append([]string{"ampl [V] \\ freq"}, freqLabels(freqs)...)...)
	for i, a := range ampls {
		cells := []string{fmt.Sprintf("%.2f", a)}
		for j := range freqs {
			cells = append(cells, report.SI(sw.Shift[i][j], "A"))
		}
		t.AddRow(cells...)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "baseline IOUT: %s\n", report.SI(sw.Baseline, "A"))
	fmt.Fprintf(&b, "worst shift: %s at %.2f V, %s (%.1f%% of nominal)\n",
		report.SI(res.WorstShift, "A"), res.WorstAmpl, report.SI(res.WorstFreq, "Hz"),
		100*res.WorstShift/sw.Baseline)
	fmt.Fprintf(&b, "same point without the filter cap: %s\n", report.SI(res.FilterlessShiftAtWorst, "A"))
	return res, b.String()
}

func freqLabels(freqs []float64) []string {
	out := make([]string, len(freqs))
	for i, f := range freqs {
		out[i] = report.SI(f, "Hz")
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Fig4Default runs the default grid used by the bench harness.
func Fig4Default() (*Fig4Result, string) {
	return Fig4(
		[]float64{0.1, 0.2, 0.3, 0.45},
		[]float64{1e6, 10e6, 100e6, 1e9},
	)
}
