// OTA reliability example: a two-stage Miller amplifier measured the way
// the paper frames analog degradation — random mismatch sets the input
// offset and its yield (§2), and the aging mechanisms erode gain and CMRR
// over the mission (§3.2).
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"time"

	"repro/internal/aging"
	"repro/internal/analog"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/variation"
)

const year = 365.25 * 24 * 3600

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Whole-stack instrumentation: the same registry relsim serves over
	// HTTP; this example prints a cost summary from it at the end.
	reg := obs.NewRegistry()
	core.EnableMetrics(reg)

	cfg := analog.DefaultOTA()
	o, err := analog.NewOTA(cfg)
	if err != nil {
		return err
	}
	s, err := o.Measure()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "two-stage OTA at %s: gain %.1f dB, GBW %s, PM %.0f°, CMRR %.0f dB\n\n",
		cfg.Tech.Name, s.DCGainDB, report.SI(s.GBW, "Hz"), s.PhaseMarginDeg, s.CMRRDB)

	// Offset distribution over fabricated instances. The campaign keeps
	// only mergeable statistics, so the trial records each die's offset
	// for the histogram (NaN marks a die that produced none).
	offsets := make([]float64, 200)
	camp := variation.Campaign{Trials: len(offsets), Seed: 11, Trial: func(rng *mathx.RNG, i int) (float64, error) {
		offsets[i] = math.NaN()
		oo, err := analog.NewOTA(cfg)
		if err != nil {
			return 0, err
		}
		for _, m := range oo.AllDevices() {
			m.Dev.Mismatch = variation.SampleMismatch(cfg.Tech, m.Dev.Params.W, m.Dev.Params.L, rng)
		}
		v, err := oo.InputOffset()
		if err == nil {
			offsets[i] = v
		}
		return v, err
	}}
	res, err := camp.Run(context.Background())
	if err != nil {
		return err
	}
	if res.Failures > 0 {
		fmt.Fprintf(w, "failure accounting: %d/%d dies failed %v\n", res.Failures, res.N, res.Stats.ByKind)
	}
	var values []float64
	for _, v := range offsets {
		if !math.IsNaN(v) {
			values = append(values, v)
		}
	}
	fmt.Fprintf(w, "input offset over %d dies (%s): σ = %s\n",
		len(values), res.Elapsed.Round(time.Millisecond), report.SI(res.StdDev(), "V"))
	lo, hi := mathx.MinMax(values)
	h := mathx.NewHistogram(lo, hi+1e-12, 12)
	for _, v := range values {
		h.Add(v)
	}
	fmt.Fprint(w, report.TextHist(h, 40))
	y := variation.EstimateYield(values, variation.Spec{Name: "vos", Lo: -5e-3, Hi: 5e-3})
	fmt.Fprintf(w, "offset yield |Vos| < 5 mV: %s\n\n", y)

	// Gain over a 10-year 400 K mission: the aging scheduler extracts the
	// real bias stress of every device at each checkpoint.
	o2, err := analog.NewOTA(cfg)
	if err != nil {
		return err
	}
	ager := aging.NewCircuitAger(o2.Circuit,
		aging.Models{NBTI: aging.DefaultNBTI(), HCI: aging.DefaultHCI()}, 400, 3)
	tbl := report.NewTable("OTA performance over life (400 K mission)", "age", "gain [dB]", "GBW", "offset")
	record := func(age float64) {
		sp, err := o2.Measure()
		if err != nil {
			tbl.AddRow(report.Years(age), "fail", "", "")
			return
		}
		vos, _ := o2.InputOffset()
		tbl.AddRow(report.Years(age),
			fmt.Sprintf("%.1f", sp.DCGainDB), report.SI(sp.GBW, "Hz"), report.SI(vos, "V"))
	}
	record(0)
	prev := 0.0
	for _, age := range aging.LogCheckpoints(1e5, 10*year, 6) {
		ager.Step(age - prev)
		prev = age
		record(age)
	}
	fmt.Fprintln(w, tbl)

	nbti, _ := ager.Ager("MTAIL").Shifts()
	fmt.Fprintf(w, "tail-source NBTI after 10 years: ΔVT = %s\n", report.SI(nbti, "V"))
	fmt.Fprintln(w, "\nThe always-on pMOS bias devices soak up >100 mV of NBTI, yet the gain")
	fmt.Fprintln(w, "barely moves: the symmetric topology cancels common-mode degradation,")
	fmt.Fprintln(w, "exactly the ratiometric resilience good analog design buys. What cannot")
	fmt.Fprintln(w, "cancel is the differential part — the input offset doubles over life —")
	fmt.Fprintln(w, "and that is where the paper's calibration and monitoring (§5) aim.")

	// What the study cost, from the instrument registry.
	snap := reg.Snapshot()
	ops, _ := snap.Counter("circuit_op_total")
	iters, _ := snap.Counter("circuit_newton_iterations_total")
	steps, _ := snap.Counter("aging_steps_total")
	fmt.Fprintf(w, "\nrun cost (obs): %d operating points, %d Newton iterations, %d aging steps",
		ops, iters, steps)
	if h := snap.Histogram("variation_trial_seconds"); h != nil && h.Count > 0 {
		fmt.Fprintf(w, "; MC trial p50 %s, p99 %s",
			report.SI(h.P50, "s"), report.SI(h.P99, "s"))
	}
	fmt.Fprintln(w)
	return nil
}
