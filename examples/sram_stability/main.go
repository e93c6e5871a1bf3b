// SRAM stability example: the 6T cell is where the paper's two threat
// axes meet — minimum-size devices make Pelgrom mismatch maximal (§2), and
// the pull-up that guards a long-stored datum sits under permanent NBTI
// stress (§3.3). This example extracts butterfly curves and static noise
// margins, Monte-Carlos the stability yield across nodes, and shows the
// margin collapsing under aging asymmetry.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/device"
	"repro/internal/report"
	"repro/internal/sram"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's transcript to w.
func run(w io.Writer) error {
	tech := device.MustTech("65nm")
	cell, err := sram.NewCell(sram.DefaultCell(tech))
	if err != nil {
		return err
	}
	hold, err := cell.HoldSNM(41)
	if err != nil {
		return err
	}
	read, err := cell.ReadSNM(41)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "65nm 6T cell (nominal): hold SNM = %s, read SNM = %s (VDD = %.1f V)\n\n",
		report.SI(hold, "V"), report.SI(read, "V"), tech.VDD)

	// Margin across nodes: the absolute noise budget shrinks with VDD.
	nt := report.NewTable("read SNM across technology nodes (nominal cells)",
		"node", "VDD", "read SNM", "SNM/VDD")
	for _, node := range []string{"180nm", "130nm", "90nm", "65nm", "45nm", "32nm"} {
		tt := device.MustTech(node)
		c, err := sram.NewCell(sram.DefaultCell(tt))
		if err != nil {
			return err
		}
		snm, err := c.ReadSNM(41)
		if err != nil {
			return err
		}
		nt.AddRow(node, fmt.Sprintf("%.1f", tt.VDD),
			report.SI(snm, "V"), fmt.Sprintf("%.0f%%", 100*snm/tt.VDD))
	}
	fmt.Fprintln(w, nt)

	// NBTI asymmetry: a cell that stored one value for years.
	at := report.NewTable("read SNM vs NBTI shift on the stressed pull-up (65nm)",
		"ΔVT(PU1)", "read SNM")
	for _, dvt := range []float64{0, 0.025, 0.05, 0.1} {
		c, err := sram.NewCell(sram.DefaultCell(tech))
		if err != nil {
			return err
		}
		c.ApplyNBTIAsymmetry(dvt)
		snm, err := c.ReadSNM(41)
		if err != nil {
			return err
		}
		at.AddRow(report.SI(dvt, "V"), report.SI(snm, "V"))
	}
	fmt.Fprintln(w, at)

	// Stability yield under mismatch: the same 100 mV read-margin
	// requirement, three nodes. Scaling widens σ/µ until the tail crosses
	// the limit.
	const limit = 0.1 // 100 mV minimum read SNM
	yt := report.NewTable("cell stability yield, read SNM > 100 mV (150 mismatched cells)",
		"node", "yield")
	for _, node := range []string{"90nm", "45nm", "32nm"} {
		y, err := sram.StabilityYield(sram.DefaultCell(device.MustTech(node)), limit, 150, 31, 11)
		if err != nil {
			return err
		}
		yt.AddRow(node, y.String())
	}
	fmt.Fprintln(w, yt)
	fmt.Fprintln(w, "Scaling erodes both the nominal margin and its σ/µ ratio — the cell-level")
	fmt.Fprintln(w, "face of the paper's yield-vs-scaling argument.")
	return nil
}
