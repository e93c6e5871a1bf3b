// Electromigration sign-off example — the Eq. 4 scenario: check a small
// power-distribution tree against a ten-year lifetime target with Black's
// law, report Blech-immune segments, worst offenders and the widening /
// slotting / reservoir fixes §3.4 describes.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/em"
	"repro/internal/report"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's transcript to w.
func run(w io.Writer) error {
	model := em.DefaultBlack()
	const (
		tempK  = 378.0               // 105 °C junction
		target = 10 * 365.25 * 86400 // ten years
	)

	// A power trunk feeding three branches; currents from a DC analysis.
	wires := []*em.Wire{
		{Name: "trunk", Width: 1.2e-6, Thickness: 0.3e-6, Length: 800e-6, Current: 6e-3},
		{Name: "branchA", Width: 0.4e-6, Thickness: 0.3e-6, Length: 300e-6, Current: 2.5e-3},
		{Name: "branchB", Width: 0.4e-6, Thickness: 0.3e-6, Length: 250e-6, Current: 2.0e-3},
		{Name: "branchC", Width: 0.4e-6, Thickness: 0.3e-6, Length: 40e-6, Current: 1.5e-3},
		{Name: "stub", Width: 0.2e-6, Thickness: 0.3e-6, Length: 15e-6, Current: 0.8e-3},
		{Name: "via-array", Width: 0.5e-6, Thickness: 0.3e-6, Length: 120e-6, Current: 3.0e-3, ViaReservoir: true},
	}

	rep := model.Check(wires, target, tempK)
	t := report.NewTable(
		fmt.Sprintf("EM sign-off @ %.0f K, target %s", tempK, report.Years(target)),
		"wire", "J [MA/cm²]", "j·L [A/m]", "MTTF", "status")
	for _, wire := range wires {
		j := wire.CurrentDensity()
		status := "ok"
		switch {
		case model.BlechImmune(wire):
			status = "Blech-immune"
		case model.MTTF(wire, tempK) < target:
			status = "VIOLATION"
		}
		if model.IsBamboo(wire) {
			status += " (bamboo)"
		}
		if wire.ViaReservoir {
			status += " (reservoir)"
		}
		t.AddRow(wire.Name,
			fmt.Sprintf("%.2f", j/1e10), // A/m² → MA/cm²
			fmt.Sprintf("%.2g", j*wire.Length),
			report.Years(model.MTTF(wire, tempK)),
			status)
	}
	fmt.Fprintln(w, t)

	if rep.Pass() {
		fmt.Fprintln(w, "network passes EM sign-off")
	} else {
		fmt.Fprintf(w, "%d violation(s); worst wire %q at %s\n",
			len(rep.Violations), rep.WorstWire, report.Years(rep.WorstMTTF))
		ft := report.NewTable("suggested widening fixes (MTTF ∝ W^(N+1))", "wire", "width now", "width fix")
		for _, v := range rep.Violations {
			ft.AddRow(v.Wire.Name, report.SI(v.Wire.Width, "m"), report.SI(v.SuggestedWidth, "m"))
		}
		fmt.Fprintln(w, ft)
	}

	// Net lifetime of the series-connected supply path.
	var mttfs []float64
	for _, wire := range wires {
		mttfs = append(mttfs, model.MTTF(wire, tempK))
	}
	fmt.Fprintf(w, "series (weakest-link) net MTTF: %s\n\n", report.Years(em.SeriesMTTF(mttfs)))

	// The classic Eq. 4 design chart: maximum J for 10-year life vs
	// temperature.
	ct := report.NewTable("J_max for 10-year life (0.4×0.3 µm wire)", "T [K]", "J_max [MA/cm²]")
	for _, tk := range []float64{338, 358, 378, 398, 418} {
		jm := model.JMax(target, tk, 0.4e-6*0.3e-6)
		ct.AddRow(fmt.Sprintf("%.0f", tk), fmt.Sprintf("%.2f", jm/1e10))
	}
	fmt.Fprintln(w, ct)
	return nil
}
