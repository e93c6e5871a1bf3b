// DAC calibration example — the Fig. 5 scenario: fabricate mismatched
// 14-bit current-steering DACs, show the INL random walk of the
// thermometer switching order, run SSPA calibration, and reproduce the
// area-versus-accuracy trade (calibrated analog area ≈ 6 % of the
// intrinsic-accuracy design).
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/calib"
	"repro/internal/mathx"
	"repro/internal/report"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// One fabricated instance at a mismatch level that intrinsic accuracy
	// cannot tolerate.
	cfg := calib.Paper14Bit(0.008)
	d, err := calib.NewDAC(cfg, mathx.NewRNG(7))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "14-bit segmented DAC (%d unary + %d binary), σ_unit = %.2f%%\n",
		cfg.UnaryBits, cfg.BinaryBits, 100*cfg.SigmaUnit)
	fmt.Fprintf(w, "as-fabricated:  INL = %.3f LSB, DNL = %.3f LSB\n", d.MaxINL(), d.MaxDNL())

	d.CalibrateSSPA(0, mathx.NewRNG(1))
	fmt.Fprintf(w, "after SSPA:     INL = %.3f LSB, DNL = %.3f LSB\n", d.MaxINL(), d.MaxDNL())
	fmt.Fprintf(w, "switching sequence (first 16): %v\n\n", d.Sequence()[:16])

	// With comparator noise in the measurement loop.
	d.ResetSequence()
	d.CalibrateSSPA(0.05, mathx.NewRNG(2))
	fmt.Fprintf(w, "SSPA w/ noisy comparator (σ=0.05 LSB): INL = %.3f LSB\n\n", d.MaxINL())

	// Yield at this mismatch level, with and without calibration.
	raw, err := calib.INLYield(cfg, 0.5, false, 200, 11)
	if err != nil {
		return err
	}
	cal, err := calib.INLYield(cfg, 0.5, true, 200, 11)
	if err != nil {
		return err
	}
	t := report.NewTable("yield at |INL| < 0.5 LSB (200 dies)", "design", "yield")
	t.AddRow("intrinsic (thermometer)", raw.String())
	t.AddRow("SSPA calibrated", cal.String())
	fmt.Fprintln(w, t)

	// The headline area study: how much mismatch (hence how little area)
	// calibration tolerates at equal yield.
	study, err := calib.RunAreaStudy(calib.Paper14Bit(0), 0.5, 0.9, 400, 13)
	if err != nil {
		return err
	}
	at := report.NewTable("area study (target: 90% yield at INL < 0.5 LSB)", "quantity", "value")
	at.AddRow("σ_unit intrinsic design", fmt.Sprintf("%.4f%%", 100*study.SigmaIntrinsic))
	at.AddRow("σ_unit calibrated design", fmt.Sprintf("%.4f%%", 100*study.SigmaCalibrated))
	at.AddRow("analog area ratio (Pelgrom: area ∝ 1/σ²)", fmt.Sprintf("%.1f%%", 100*study.AnalogAreaRatio))
	at.AddRow("paper (Chen/Gielen silicon)", "~6%")
	_, err = fmt.Fprintln(w, at)
	return err
}
