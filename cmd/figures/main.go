// Command figures regenerates the paper's evaluation artefacts (Figures
// 1-6, Equations 1-4) as text series.
//
// Usage:
//
//	figures            # everything
//	figures -only fig4 # one artefact: fig1..fig6, eq1..eq4
//	figures -fast      # reduced Monte-Carlo sizes
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/figures"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// run parses args and writes the selected artefacts to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	only := fs.String("only", "", "generate a single artefact: fig1..fig6, eq1..eq4")
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

	gens := []struct {
		key string
		run func() string
	}{
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
	}

	found := false
	for _, g := range gens {
		if *only != "" && g.key != *only {
			continue
		}
		found = true
		if _, err := fmt.Fprintln(w, g.run()); err != nil {
			return err
		}
	}
	if !found {
		return fmt.Errorf("unknown artefact %q (use fig1..fig6, eq1..eq4)", *only)
	}
	return nil
}
