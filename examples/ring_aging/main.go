// Ring-oscillator aging example: the digital face of the paper's story.
// BTI and hot carriers slow logic down over life; a frequency monitor plus
// a supply-voltage knob (adaptive voltage scaling — a classic
// knobs-and-monitors instance) recovers the lost speed at a power cost.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/adapt"
	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/digital"
	"repro/internal/mathx"
	"repro/internal/report"
	"repro/internal/variation"
)

const year = 365.25 * 24 * 3600

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's transcript to w.
func run(w io.Writer) error {
	tech := device.MustTech("65nm")

	// Single-inverter delay, the primitive quantity.
	tphl, tplh, err := digital.PropagationDelay(tech, digital.DefaultInverter(tech), 2e-15)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "65nm inverter with 2 fF load: tpHL = %s, tpLH = %s\n\n",
		report.SI(tphl, "s"), report.SI(tplh, "s"))

	// Frequency degradation of a 5-stage ring over missions of increasing
	// length.
	t := report.NewTable("ring-oscillator slowdown at 400 K (5 stages)",
		"mission", "fresh", "aged", "slowdown", "worst ΔVT")
	for _, years := range []float64{1, 3, 10} {
		ro, err := digital.BuildRingOscillator(tech, 5, digital.DefaultInverter(tech), 2e-15)
		if err != nil {
			return err
		}
		res, err := digital.AgeRing(ro, years*year, 400,
			aging.Models{NBTI: aging.DefaultNBTI(), HCI: aging.DefaultHCI()}, 7)
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%gyr", years),
			report.SI(res.FreshHz, "Hz"), report.SI(res.AgedHz, "Hz"),
			fmt.Sprintf("%.1f%%", res.SlowdownPct),
			report.SI(res.WorstDeltaVT, "V"))
	}
	fmt.Fprintln(w, t)

	// Adaptive voltage scaling: a supply knob driven by a frequency
	// monitor pulls the aged ring back to its speed specification.
	ro, err := digital.BuildRingOscillator(tech, 5, digital.DefaultInverter(tech), 2e-15)
	if err != nil {
		return err
	}
	fresh, err := ro.MeasureFrequency()
	if err != nil {
		return err
	}
	target := 0.90 * fresh
	if _, err := digital.AgeRing(ro, 10*year, 400,
		aging.Models{NBTI: aging.DefaultNBTI(), HCI: aging.DefaultHCI()}, 7); err != nil {
		return err
	}

	vddSrc, err := ro.Circuit.VSourceByName(ro.SupplyName)
	if err != nil {
		return err
	}
	knob := adapt.VSourceKnob("vdd", vddSrc, mathx.Linspace(tech.VDD, tech.VDD+0.25, 6))
	freqMon := adapt.Monitor{Name: "freq", Measure: func(*circuit.Circuit) (float64, error) {
		return ro.MeasureFrequency()
	}}
	ctrl, err := adapt.NewController([]*adapt.Knob{knob}, []adapt.Monitor{freqMon},
		[]variation.Spec{{Name: "freq", Lo: target, Hi: 1e18}}, adapt.Greedy)
	if err != nil {
		return err
	}
	tr, err := ctrl.Tune(ro.Circuit)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "adaptive supply scaling after 10 years:\n")
	fmt.Fprintf(w, "  target frequency : %s (90%% of fresh %s)\n", report.SI(target, "Hz"), report.SI(fresh, "Hz"))
	fmt.Fprintf(w, "  chosen VDD       : %.3f V (nominal %.2f V)\n", knob.Value(), tech.VDD)
	fmt.Fprintf(w, "  restored freq    : %s (in spec: %v)\n", report.SI(tr.Values[0], "Hz"), tr.InSpec)
	fmt.Fprintln(w, "\nThe supply knob buys back the BTI-induced slowdown — at higher power")
	fmt.Fprintln(w, "and faster further wear, the exact trade §5.2 of the paper discusses.")
	return nil
}
