package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/jobspec"
	"repro/internal/report"
)

// render prints a jobspec.Result the way relsim always has: tables and
// CSV to stdout; warnings and failure accounting to stderr.
// The renderer consumes only the structured Result, so the server's JSON
// clients and the CLI see the same numbers.
func render(spec *jobspec.Spec, res *jobspec.Result) {
	switch res.Kind {
	case jobspec.KindOP:
		renderOP(res.OP)
	case jobspec.KindTran, jobspec.KindSweep, jobspec.KindAC:
		fmt.Print(report.CSV(res.Series.Headers, res.Series.Rows))
	case jobspec.KindAge:
		renderAge(res)
	case jobspec.KindMC:
		if err := renderMC(os.Stdout, os.Stderr, spec, res); err != nil {
			log.Fatal(err)
		}
	case jobspec.KindCorners:
		renderCorners(res.Corners)
	case jobspec.KindCentering:
		renderCentering(res)
	case jobspec.KindSignoff:
		renderSignoff(res)
	}
}

func renderOP(op *jobspec.OPResult) {
	t := report.NewTable("operating point", "node", "V")
	for _, nv := range op.Nodes {
		t.AddRow(nv.Node, report.SI(nv.V, "V"))
	}
	fmt.Println(t)
	if len(op.Devices) > 0 {
		mt := report.NewTable("devices", "name", "ID", "gm", "region")
		for _, d := range op.Devices {
			mt.AddRow(d.Name, report.SI(d.ID, "A"), report.SI(d.Gm, "S"), d.Region)
		}
		fmt.Println(mt)
	}
}

func renderAge(res *jobspec.Result) {
	age := res.Age
	if res.Partial {
		log.Printf("warning: %s — reporting the partial trajectory (%d checkpoints)",
			res.Warning, len(age.Checkpoints))
	}
	headers := append([]string{"age"}, age.Nodes...)
	t := report.NewTable(fmt.Sprintf("aging trajectory (%g years @ %g K)", age.Years, age.TempK), headers...)
	for _, cp := range age.Checkpoints {
		cells := []string{report.Years(cp.Time)}
		if cp.Failed {
			cells = append(cells, "no convergence")
		} else {
			for _, nv := range cp.Nodes {
				cells = append(cells, report.SI(nv.V, "V"))
			}
		}
		t.AddRow(cells...)
	}
	fmt.Println(t)
	dt := report.NewTable("device damage at end of life", "device", "ΔVT", "mobility", "BD mode")
	for _, d := range age.Devices {
		dt.AddRow(d.Name,
			report.SI(d.DeltaVT, "V"),
			fmt.Sprintf("%.3f", d.MobilityFactor),
			d.BDMode)
	}
	fmt.Println(dt)
}

// renderMC reports a Monte-Carlo campaign from its mergeable statistics:
// exact mean and σ from the moments, quantiles from the sketch, and the
// yield. They are the same whatever the shard split or resume point, so
// out receives the same text for every split. Warnings, the failure
// accounting and the shard/resume provenance go to diag.
func renderMC(out, diag io.Writer, spec *jobspec.Spec, res *jobspec.Result) error {
	mc := res.MC
	if res.Partial {
		fmt.Fprintf(diag, "relsim: warning: %s — reporting partial results\n", res.Warning)
	}
	printMCAccounting(diag, mc)
	st := mc.Stats
	if st.Moments.Count == 0 {
		return fmt.Errorf("mc: no trial produced a value")
	}
	fmt.Fprintf(out, "V(%s) over %d dies: mean %s, σ %s\n", mc.Node, mc.Completed(),
		report.SI(st.Mean(), "V"), report.SI(st.StdDev(), "V"))
	t := report.NewTable("distribution (quantile sketch)", "quantile", "V("+mc.Node+")")
	for _, p := range []float64{0.01, 0.10, 0.50, 0.90, 0.99} {
		t.AddRow(fmt.Sprintf("p%02.0f", p*100), report.SI(st.Quantile(p), "V"))
	}
	fmt.Fprintln(out, t)
	if w := spec.MC.Window(); w.HasSpec() {
		fmt.Fprintf(out, "yield for %g <= V(%s) <= %g: %s\n", w.SpecLo(), mc.Node, w.SpecHi(), mc.Yield)
	}
	return nil
}

// printMCAccounting reports the run's structured failure accounting —
// how many dies measured, failed (by kind), returned NaN or were never
// run — and how the run was split, so partial, degraded and resumed
// runs are legible to operators. It writes to diag (stderr): the
// accounting is diagnostics, and stdout may be a pipe carrying the
// measurement results.
func printMCAccounting(diag io.Writer, mc *jobspec.MCOutcome) {
	fmt.Fprintf(diag, "trials: %d requested, %d completed in %s (%d ok, %d failed, %d NaN, %d cancelled)\n",
		mc.Requested, mc.Completed(), time.Duration(mc.Elapsed).Round(time.Millisecond),
		mc.Stats.Moments.Count, mc.Failures, mc.NaNs, mc.Cancelled)
	if mc.Shards > 1 {
		fmt.Fprintf(diag, "  scatter-gathered over %d shards\n", mc.Shards)
	}
	if mc.Resumed > 0 {
		fmt.Fprintf(diag, "  resumed from %d checkpointed chunk(s)\n", mc.Resumed)
	}
	if mc.Failures > 0 {
		kinds := make([]string, 0, len(mc.FailuresByKind))
		for kind := range mc.FailuresByKind {
			kinds = append(kinds, kind)
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			fmt.Fprintf(diag, "  %s failures: %d\n", kind, mc.FailuresByKind[kind])
		}
		// Show the first structured error as a debugging sample.
		fmt.Fprintf(diag, "  first failure: %s\n", mc.FirstFailure)
	}
	fmt.Fprintln(diag, "  quantiles carry the sketch's bounded rank error")
}

func renderCorners(c *jobspec.CornersResult) {
	judged := c.Lo != nil || c.Hi != nil
	if judged {
		t := report.NewTable("process corners", "corner", "V("+c.Node+")", "margin", "verdict")
		for _, co := range c.Corners {
			margin, verdict := "—", "—"
			if co.Margin != nil {
				margin = report.SI(*co.Margin, "V")
			}
			if co.Pass != nil {
				verdict = "PASS"
				if !*co.Pass {
					verdict = "FAIL"
				}
			}
			t.AddRow(co.Name, report.SI(co.V, "V"), margin, verdict)
		}
		fmt.Println(t)
	} else {
		t := report.NewTable("process corners", "corner", "V("+c.Node+")")
		for _, co := range c.Corners {
			t.AddRow(co.Name, report.SI(co.V, "V"))
		}
		fmt.Println(t)
	}
	fmt.Printf("worst corner: %s (V(%s) = %s)\n", c.Worst, c.Node, report.SI(c.WorstV, "V"))
	if judged {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Printf("corner verdict: %s\n", verdict)
	}
}

// renderCentering reports a design-centering run: the yield trajectory of
// every accepted sizing move, the final device widths, and the headline
// baseline→final yield improvement.
func renderCentering(res *jobspec.Result) {
	c := res.Centering
	if res.Partial {
		log.Printf("warning: %s — reporting the partial trajectory (%d accepted moves)",
			res.Warning, len(c.Trajectory)-1)
	}
	t := report.NewTable(fmt.Sprintf("centering trajectory (%d dies/point)", c.Trials),
		"iter", "move", "yield", "95% CI", "mean V("+c.Node+")", "σ")
	for _, p := range c.Trajectory {
		move := "baseline"
		if p.Device != "" {
			move = fmt.Sprintf("%s ×%.3g", p.Device, p.Scale)
		}
		mean, sigma := "—", "—"
		if p.Mean != nil {
			mean = report.SI(*p.Mean, "V")
		}
		if p.Sigma != nil {
			sigma = report.SI(*p.Sigma, "V")
		}
		t.AddRow(fmt.Sprintf("%d", p.Iteration), move,
			fmt.Sprintf("%.1f%%", 100*p.Yield.Yield),
			fmt.Sprintf("[%.1f%%, %.1f%%]", 100*p.Yield.Lo95, 100*p.Yield.Hi95),
			mean, sigma)
	}
	fmt.Println(t)
	st := report.NewTable("final sizing", "device", "scale", "width")
	for _, d := range c.Sizing {
		st.AddRow(d.Device, fmt.Sprintf("×%.3g", d.Scale), report.SI(d.WidthM, "m"))
	}
	fmt.Println(st)
	how := "stopped at max-iters"
	if c.Converged {
		how = "converged"
	}
	fmt.Printf("yield: %.1f%% → %.1f%% after %d accepted move(s) (%s)\n",
		100*c.Baseline.Yield.Yield, 100*c.Final.Yield.Yield, len(c.Trajectory)-1, how)
}

// renderSignoff prints the composite compliance report's text rendering —
// the same versioned signoff.Report the HTTP API returns as JSON — and
// routes the incompleteness warning to stderr like every other analysis.
func renderSignoff(res *jobspec.Result) {
	if res.Partial {
		log.Printf("warning: %s", res.Warning)
	}
	fmt.Print(res.Signoff.Text())
}
