package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/variation"
)

// The full-stack integration test: a hierarchical netlist goes through
// parsing, Monte-Carlo fabrication, mission aging, yield extraction,
// sensitivity ranking and report rendering — every layer of the repository
// in one flow, the way a user of the library would chain them.

const integrationDeck = `
* two-stage reliability vehicle
.tech 65nm
.subckt STAGE in out vdd
MP out in vdd vdd PMOS W=4u L=130n
RL out 0 20k
.ends
VDD vdd 0 DC 1.1
VB  b1  0 DC 0.6
X1 b1 o1 vdd STAGE
.end
`

func TestFullStackNetlistToYield(t *testing.T) {
	// Parse once to locate the nominal output.
	d, err := netlist.Parse(integrationDeck)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.MOSFETs["X1.MP"]; !ok {
		t.Fatalf("hierarchy flattening lost the device: %v", len(d.MOSFETs))
	}
	sol, err := d.Circuit.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	vnom := sol.Voltage("o1")
	if vnom <= 0 || vnom >= 1.1 {
		t.Fatalf("nominal output %g outside rails", vnom)
	}

	// Sensitivity: the single PMOS must dominate (it is the only device).
	sens, err := VTSensitivities(d.Circuit, func(c *circuit.Circuit) (float64, error) {
		s, err := c.OperatingPoint()
		if err != nil {
			return 0, err
		}
		return s.Voltage("o1"), nil
	}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if sens[0].Device != "X1.MP" || sens[0].DMetricDVT == 0 {
		t.Fatalf("sensitivity ranking wrong: %+v", sens)
	}

	// Reliability simulation over a 10-year mission.
	sim := &Simulator{
		Build: func() (*circuit.Circuit, error) {
			dd, err := netlist.Parse(integrationDeck)
			if err != nil {
				return nil, err
			}
			return dd.Circuit, nil
		},
		Tech:   d.Tech,
		Models: aging.Models{NBTI: aging.DefaultNBTI(), HCI: aging.DefaultHCI()},
		Metrics: []Metric{{
			Name: "vout",
			Measure: func(c *circuit.Circuit) (float64, error) {
				s, err := c.OperatingPoint()
				if err != nil {
					return 0, err
				}
				return s.Voltage("o1"), nil
			},
			Spec: variation.Spec{Name: "vout", Lo: 0.8 * vnom, Hi: 1.2 * vnom},
		}},
		Seed: 2024,
	}
	res, err := sim.RunCtx(context.Background(), 50, Mission{Duration: 10 * year, TempK: 380, Checkpoints: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 2 {
		t.Fatalf("%d trials errored", res.Errors)
	}
	if res.Yield[0].Yield < 0.9 {
		t.Errorf("time-zero yield %v too low", res.Yield[0])
	}
	if last := res.Yield[len(res.Yield)-1]; last.Yield >= res.Yield[0].Yield {
		t.Errorf("no wear-out visible: %v -> %v", res.Yield[0], last)
	}
	if math.IsInf(res.MedianTTF(), 1) {
		t.Log("median TTF infinite — more than half the dies survived (acceptable)")
	}

	// Hazard estimation from the failure times.
	h, err := EstimateHazard(res.FailureTimes, []float64{1e5, 1e7, 10 * year})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Rate) != 2 {
		t.Fatal("hazard bins wrong")
	}

	// Report rendering holds the whole story.
	tb := report.NewTable("yield over life", "age", "yield")
	for k := range res.Times {
		tb.AddRow(report.Years(res.Times[k]), res.Yield[k].String())
	}
	out := tb.String()
	if !strings.Contains(out, "yield over life") || tb.NumRows() != len(res.Times) {
		t.Error("report rendering broken")
	}
}

func TestWeibullPlotRendering(t *testing.T) {
	out := report.WeibullPlot("TBD plot", []float64{3, 1, 2})
	if !strings.Contains(out, "weibit") {
		t.Error("missing weibit column")
	}
	lines := strings.Count(out, "\n")
	if lines != 6 { // title + header + sep + 3 rows
		t.Errorf("unexpected plot shape (%d lines):\n%s", lines, out)
	}
}
