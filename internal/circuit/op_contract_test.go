package circuit

import (
	"math"
	"testing"

	"repro/internal/device"
)

// TestOPEvaluatedAtLastConvergedBias pins the MOSFET.OP contract: after
// an operating point, a DC sweep, a fixed-step and an adaptive transient,
// BiasVoltages is the bias at the analysis's last converged solution and
// OP is the model evaluated there, bit for bit; OP reads the device's
// present mismatch.
func TestOPEvaluatedAtLastConvergedBias(t *testing.T) {
	tech := device.MustTech("90nm")
	c := New()
	c.AddVSource("VDD", "vdd", "0", DC(1.1))
	c.AddVSource("VIN", "in", "0", Pulse{Low: 0.2, High: 0.9, Rise: 2e-10, Fall: 2e-10, Width: 1e-9, Period: 3e-9})
	mn := c.AddMOSFET("MN", "out", "in", "0", "0", device.NewMosfet(tech.NMOSParams(1e-6, tech.Lmin, 300)))
	mp := c.AddMOSFET("MP", "out", "in", "vdd", "vdd", device.NewMosfet(tech.PMOSParams(2e-6, tech.Lmin, 300)))
	c.AddResistor("RL", "out", "0", 200e3)
	c.AddCapacitor("CL", "out", "0", 5e-15)

	// check compares every MOSFET's recorded bias with the node voltages
	// v of the last converged solution, and its OP with Eval there.
	check := func(stage string, v func(node string) float64) {
		t.Helper()
		for _, tc := range []struct {
			m          *MOSFET
			d, g, s, b string
		}{{mn, "out", "in", "0", "0"}, {mp, "out", "in", "vdd", "vdd"}} {
			vgs, vds, vbs := tc.m.BiasVoltages()
			wgs, wds, wbs := v(tc.g)-v(tc.s), v(tc.d)-v(tc.s), v(tc.b)-v(tc.s)
			if !sameBits(vgs, wgs) || !sameBits(vds, wds) || !sameBits(vbs, wbs) {
				t.Fatalf("%s %s: bias (%v, %v, %v), last solution gives (%v, %v, %v)",
					stage, tc.m.Name(), vgs, vds, vbs, wgs, wds, wbs)
			}
			got, want := tc.m.OP(), tc.m.Dev.Eval(vgs, vds, vbs)
			if !sameBits(got.ID, want.ID) || !sameBits(got.Gm, want.Gm) || !sameBits(got.Gds, want.Gds) ||
				!sameBits(got.Gmb, want.Gmb) || !sameBits(got.VTeff, want.VTeff) || got.Region != want.Region {
				t.Fatalf("%s %s: OP %+v, Eval at the bias %+v", stage, tc.m.Name(), got, want)
			}
		}
	}
	solV := func(sol *Solution) func(string) float64 { return sol.Voltage }
	lastSample := func(wf *Waveforms) func(string) float64 {
		return func(node string) float64 {
			if node == "0" {
				return 0
			}
			w := wf.Node(node)
			return w[len(w)-1]
		}
	}

	sol, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	check("op", solV(sol))

	sweep, err := c.DCSweep("VDD", []float64{0.9, 1.0, 1.2})
	if err != nil {
		t.Fatal(err)
	}
	check("sweep", solV(sweep[len(sweep)-1]))

	wf, err := c.Transient(TranSpec{Stop: 4e-9, Step: 5e-11})
	if err != nil {
		t.Fatal(err)
	}
	check("transient", lastSample(wf))

	wf, err = c.TransientAdaptive(AdaptiveSpec{Stop: 4e-9, MinStep: 1e-13, MaxStep: 1e-10, LTETol: 1e-3, Integrator: Trapezoidal})
	if err != nil {
		t.Fatal(err)
	}
	check("adaptive", lastSample(wf))

	// OP reads the device as it is now, at the recorded bias.
	before := mn.OP()
	mn.Dev.Mismatch.DeltaVT0 = 0.05
	if after := mn.OP(); after.VTeff == before.VTeff {
		t.Fatalf("OP ignored a mismatch change: VTeff %v before and after", after.VTeff)
	}
	check("mismatch", lastSample(wf))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
