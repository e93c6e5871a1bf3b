// EMC sweep example — the Figs. 3-4 scenario: conducted EMI capacitively
// coupled onto the gate of a current-mirror reference is rectified by the
// mirror nonlinearity and pumps the mean output current away from its
// quiet value. The sweep maps the DC shift over interference amplitude and
// frequency (the DPI picture), and the digital half measures jitter and
// false switching on an inverter.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/device"
	"repro/internal/emc"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's transcript to w.
func run(w io.Writer) error {
	// The emc engine sits beside the core reliability stack, so it wires
	// its instruments itself; the sweep summary at the end reads them back.
	reg := obs.NewRegistry()
	emc.SetMetrics(reg)

	tech := device.MustTech("180nm")
	cr := emc.BuildCurrentReference(tech, true)

	sol, err := cr.Circuit.OperatingPoint()
	if err != nil {
		return err
	}
	iout := (sol.Voltage(cr.RailNode) - sol.Voltage(cr.OutNode)) / cr.RLoad
	fmt.Fprintf(w, "current reference quiet point: IOUT = %s, V(gate) = %s\n\n",
		report.SI(iout, "A"), report.SI(sol.Voltage("gate"), "V"))

	ampls := []float64{0.1, 0.2, 0.3, 0.45}
	freqs := []float64{1e6, 10e6, 100e6, 1e9} // the IEC range reaches 1 GHz
	sw, err := emc.SweepEMI(cr.Circuit, cr.InjectName, ampls, freqs,
		cr.OutputCurrentMetric(), emc.DefaultOptions(cr.RecordNodes()...))
	if err != nil {
		return err
	}
	t := report.NewTable("mean IOUT shift vs EMI amplitude and frequency",
		"ampl \\ freq", report.SI(freqs[0], "Hz"), report.SI(freqs[1], "Hz"),
		report.SI(freqs[2], "Hz"), report.SI(freqs[3], "Hz"))
	for i, a := range ampls {
		row := []string{fmt.Sprintf("%.2f V", a)}
		for j := range freqs {
			row = append(row, report.SI(sw.Shift[i][j], "A"))
		}
		t.AddRow(row...)
	}
	fmt.Fprintln(w, t)
	worst, wa, wf := sw.WorstShift()
	fmt.Fprintf(w, "worst DC shift: %s (%.1f%% of nominal) at %.2f V, %s\n\n",
		report.SI(worst, "A"), 100*worst/sw.Baseline, wa, report.SI(wf, "Hz"))

	// Digital immunity: jitter and false switching on a 90 nm inverter.
	dig := device.MustTech("90nm")
	jt := report.NewTable("inverter EMI-induced jitter (100 ns input ramp)", "EMI ampl", "p-p jitter")
	for _, a := range []float64{0.02, 0.08, 0.15} {
		j, err := emc.InverterJitter(dig, emc.Injection{Ampl: a, Freq: 200e6}, 100e-9, 6)
		if err != nil {
			return err
		}
		jt.AddRow(fmt.Sprintf("%.2f V", a), report.SI(j, "s"))
	}
	fmt.Fprintln(w, jt)

	ft := report.NewTable("inverter false switching (static low input, 5 EMI cycles)", "EMI ampl", "spurious transitions")
	for _, a := range []float64{0.1, 0.5, 0.9} {
		n, err := emc.FalseSwitchCount(dig, emc.Injection{Ampl: a, Freq: 50e6}, 5)
		if err != nil {
			return err
		}
		ft.AddRow(fmt.Sprintf("%.2f V", a), fmt.Sprintf("%d", n))
	}
	fmt.Fprintln(w, ft)

	// Sweep cost from the instrument registry: grid points measured and
	// the latency of each rectification pair (baseline + disturbed).
	snap := reg.Snapshot()
	points, _ := snap.Counter("emc_sweep_points_total")
	if h := snap.Histogram("emc_rectification_seconds"); h != nil && h.Count > 0 {
		fmt.Fprintf(w, "sweep cost (obs): %d grid points, rectification p50 %s, p99 %s\n",
			points, report.SI(h.P50, "s"), report.SI(h.P99, "s"))
	}
	return nil
}
