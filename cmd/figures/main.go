// Command figures regenerates the paper's evaluation artefacts (Figures
// 1-6, Equations 1-4), the studies around them and the design-choice
// ablations of DESIGN.md as text series.
//
// Usage:
//
//	figures            # everything
//	figures -only fig4 # one artefact; -h lists the keys
//	figures -fast      # reduced Monte-Carlo sizes
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/figures"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// artefact is one printable study: its -only key and its generator.
type artefact struct {
	key string
	run func() string
}

// artefacts lists every study in print order. nMC and dacMC size the
// Monte-Carlo runs of Fig. 1, Eq. 1 and Fig. 5; the rest run at one size.
func artefacts(nMC, dacMC int) []artefact {
	return []artefact{
		{"fig1", func() string { _, s := figures.Fig1(nMC, 1); return s }},
		{"fig2", func() string { _, s := figures.Fig2(); return s }},
		{"fig3", func() string { _, s := figures.Fig3(); return s }},
		{"fig4", func() string { _, s := figures.Fig4Default(); return s }},
		{"fig5", func() string { _, s := figures.Fig5(dacMC, 3); return s }},
		{"fig6", func() string { _, s := figures.Fig6(30, 10); return s }},
		{"eq1", func() string { _, s := figures.Eq1(nMC, 5); return s }},
		{"eq2", func() string { _, s := figures.Eq2(); return s }},
		{"eq3", func() string { _, s := figures.Eq3(); return s }},
		{"eq4", func() string { _, s := figures.Eq4(); return s }},
		{"scaling", func() string { _, s := figures.ScalingStudy(); return s }},
		{"ring", func() string { _, s := figures.Ring(); return s }},
		{"immunity", func() string { _, s := figures.Immunity(); return s }},
		{"ablate-mc", func() string { _, s := figures.AblateMCSamples(); return s }},
		{"ablate-aging", func() string { _, s := figures.AblateAgingSteps(); return s }},
		{"ablate-sspa", func() string { _, s := figures.AblateSSPA(); return s }},
		{"ablate-controller", func() string { _, s := figures.AblateController(); return s }},
		{"ablate-sampling", func() string { _, s := figures.AblateSampling(); return s }},
		{"ablate-step", func() string { _, s := figures.AblateAdaptiveStep(); return s }},
		{"ablate-integrator", func() string { _, s := figures.AblateIntegrator(); return s }},
		{"sram", func() string { _, s := figures.SRAMStability(); return s }},
	}
}

// run parses args and writes the selected artefacts to w.
func run(w io.Writer, args []string) error {
	var keys []string
	for _, a := range artefacts(0, 0) {
		keys = append(keys, a.key)
	}
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	only := fs.String("only", "", "generate a single artefact: "+strings.Join(keys, ", "))
	fast := fs.Bool("fast", false, "reduced Monte-Carlo sizes")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	nMC := 20000
	dacMC := 1000
	if *fast {
		nMC = 3000
		dacMC = 200
	}

	found := false
	for _, a := range artefacts(nMC, dacMC) {
		if *only != "" && a.key != *only {
			continue
		}
		found = true
		if _, err := fmt.Fprintln(w, a.run()); err != nil {
			return err
		}
	}
	if !found {
		return fmt.Errorf("unknown artefact %q (use %s)", *only, strings.Join(keys, ", "))
	}
	return nil
}
