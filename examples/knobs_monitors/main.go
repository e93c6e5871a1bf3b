// Knobs & monitors example — the Fig. 6 scenario: a PMOS amplifier whose
// gain collapses under NBTI is kept inside its specification by a gain
// monitor, a gate-bias knob and a control algorithm re-tuning at every
// mission checkpoint. The same design without the control loop fails
// decades earlier.
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"repro/internal/adapt"
	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
	"repro/internal/report"
	"repro/internal/variation"
)

const year = 365.25 * 24 * 3600

func buildSystem(tech *device.Technology) (*circuit.Circuit, *adapt.Controller, error) {
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
	vg := c.AddVSource("VG", "g", "0", circuit.DC(tech.VDD-0.45))
	vg.ACMag = 1
	c.AddResistor("RD", "d", "0", 20e3)
	m := device.NewMosfet(tech.PMOSParams(4e-6, 2*tech.Lmin, 300))
	c.AddMOSFET("M1", "d", "g", "vdd", "vdd", m)

	knob := adapt.VSourceKnob("vbias", vg, mathx.Linspace(tech.VDD-0.44, 0.2, 10))
	ctrl, err := adapt.NewController(
		[]*adapt.Knob{knob},
		[]adapt.Monitor{
			adapt.ACGainMonitor("gain", "d", 1e3),
			adapt.SupplyCurrentMonitor("idd", "VDD"),
		},
		[]variation.Spec{
			{Name: "gain", Lo: 5.0, Hi: math.Inf(1)},
			{Name: "idd", Lo: 0, Hi: 200e-6}, // power budget
		},
		adapt.Exhaustive,
	)
	return c, ctrl, err
}

func mission(tech *device.Technology, adaptive bool, checkpoints []float64) (*adapt.MissionResult, error) {
	c, ctrl, err := buildSystem(tech)
	if err != nil {
		return nil, err
	}
	// Both designs get one factory trim at t = 0.
	if _, err := ctrl.Tune(c); err != nil {
		return nil, err
	}
	ager := aging.NewCircuitAger(c,
		aging.Models{NBTI: aging.DefaultNBTI(), HCI: aging.DefaultHCI()}, 400, 99)
	return adapt.RunMission(ager, ctrl, checkpoints, adaptive)
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	tech := device.MustTech("65nm")
	checkpoints := mathx.Logspace(1e5, 30*year, 12)

	static, err := mission(tech, false, checkpoints)
	if err != nil {
		return err
	}
	adaptive, err := mission(tech, true, checkpoints)
	if err != nil {
		return err
	}

	t := report.NewTable("amplifier over a 30-year mission at 400 K (gain spec ≥ 5, IDD ≤ 200 µA)",
		"age", "static gain", "adaptive gain", "adaptive IDD", "knob")
	for i, p := range adaptive.Points {
		sg := "fail"
		if len(static.Points[i].Values) > 0 {
			sg = fmt.Sprintf("%.2f", static.Points[i].Values[0])
		}
		ag, idd := "fail", ""
		if len(p.Values) > 1 {
			ag = fmt.Sprintf("%.2f", p.Values[0])
			idd = report.SI(p.Values[1], "A")
		}
		knob := ""
		if len(p.KnobIndices) > 0 {
			knob = fmt.Sprintf("%d", p.KnobIndices[0])
		}
		t.AddRow(report.Years(p.Time), sg, ag, idd, knob)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "time to spec violation: static %s, adaptive %s\n",
		report.Years(static.TimeToFailure()), report.Years(adaptive.TimeToFailure()))
	fmt.Fprintln(w, "\nThe knob trace shows the controller progressively strengthening the")
	fmt.Fprintln(w, "gate bias as NBTI raises |VT| — correct operation is maintained at a")
	fmt.Fprintln(w, "modest supply-current cost, exactly the trade-off §5.2 describes.")
	return nil
}
