package figures

import (
	"fmt"
	"strings"

	"repro/internal/aging"
	"repro/internal/device"
	"repro/internal/digital"
	"repro/internal/emc"
	"repro/internal/report"
)

// RingResult is the digital-slowdown artefact.
type RingResult struct {
	*digital.DegradationResult
}

// Ring ages a 65 nm five-stage ring oscillator over a ten-year 400 K
// mission and reports the frequency degradation — the "slower circuits"
// claim of §2-3.
func Ring() (*RingResult, string) {
	tech := device.MustTech("65nm")
	ro, err := digital.BuildRingOscillator(tech, 5, digital.DefaultInverter(tech), 2e-15)
	must("ring build", err)
	res, err := digital.AgeRing(ro, 10*Year, 400,
		aging.Models{NBTI: aging.DefaultNBTI(), HCI: aging.DefaultHCI()}, 7)
	must("ring aging", err)
	txt := fmt.Sprintf(
		"Ring-oscillator degradation: fresh %.3g GHz -> aged %.3g GHz (%.1f%% slowdown, worst ΔVT %.0f mV)",
		res.FreshHz/1e9, res.AgedHz/1e9, res.SlowdownPct, res.WorstDeltaVT*1e3)
	return &RingResult{res}, txt
}

// ImmunityResult is the IEC-style immunity curve.
type ImmunityResult struct {
	Freqs      []float64
	Thresholds []float64
}

// Immunity bisects the EMI amplitude that produces a 0.5 µA output shift
// on the Fig. 3 reference, per frequency — the DPI immunity plot.
func Immunity() (*ImmunityResult, string) {
	tech := device.MustTech("180nm")
	cr := emc.BuildCurrentReference(tech, true)
	opts := emc.DefaultOptions(cr.RecordNodes()...)
	opts.SettleCycles, opts.MeasureCycles, opts.StepsPerCycle = 3, 5, 32
	s := &emc.ImmunitySearch{
		Source: cr.InjectName, Metric: cr.OutputCurrentMetric(),
		Opts: opts, AmplMax: 0.8, Tol: 0.08,
	}
	freqs := []float64{1e6, 10e6, 100e6}
	curve, err := s.ImmunityCurve(cr.Circuit, freqs, 0.5e-6)
	must("immunity curve", err)
	res := &ImmunityResult{Freqs: freqs, Thresholds: curve}
	var b strings.Builder
	b.WriteString("Immunity thresholds for a 0.5uA output shift (DPI-style)\n")
	t := report.NewTable("", "frequency", "threshold amplitude")
	for i := range freqs {
		t.AddRow(report.SI(freqs[i], "Hz"), report.SI(curve[i], "V"))
	}
	b.WriteString(t.String())
	return res, b.String()
}
