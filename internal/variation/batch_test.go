package variation

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
)

func batchTestCircuit(t *testing.T, tech *device.Technology) *circuit.Circuit {
	t.Helper()
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
	c.AddResistor("R1", "vdd", "d1", 10e3)
	c.AddMOSFET("M2", "d1", "g", "0", "0", device.NewMosfet(tech.NMOSParams(2e-6, 2*tech.Lmin, 300)))
	c.AddMOSFET("M1", "g", "g", "0", "0", device.NewMosfet(tech.NMOSParams(1e-6, 2*tech.Lmin, 300)))
	c.AddMOSFET("M3", "d1", "d1", "vdd", "vdd", device.NewMosfet(tech.PMOSParams(4e-6, 3*tech.Lmin, 300)))
	return c
}

// TestMismatchBatchBitIdentical pins SampleTrial+ApplyTrial to the exact
// per-device state ApplyRandomMismatch produces from the same RNG stream —
// the property that lets the batched Monte-Carlo path reuse one circuit
// across trials without perturbing results.
func TestMismatchBatchBitIdentical(t *testing.T) {
	tech := device.MustTech("65nm")
	corner := GlobalCorner{DeltaVT0: 0.012, BetaFactor: 0.97}
	const trials = 16

	ref := batchTestCircuit(t, tech)
	want := make([]map[string]device.Mismatch, trials)
	for i := 0; i < trials; i++ {
		rng := mathx.NewRNG(42).Split(uint64(i))
		ApplyRandomMismatch(ref, tech, corner, rng)
		want[i] = map[string]device.Mismatch{}
		for _, m := range ref.MOSFETs() {
			want[i][m.Name()] = m.Dev.Mismatch
		}
	}

	c := batchTestCircuit(t, tech)
	b := NewMismatchBatch(c, tech, trials)
	if b.Devices() != 3 || b.Trials() != trials {
		t.Fatalf("batch shape %d devices x %d trials, want 3 x %d", b.Devices(), b.Trials(), trials)
	}
	for i := 0; i < trials; i++ {
		b.SampleTrial(i, corner, mathx.NewRNG(42).Split(uint64(i)))
	}
	// Apply out of order to prove trials are independent slots.
	for _, i := range []int{5, 0, 15, 5, 9} {
		b.ApplyTrial(i)
		for _, m := range c.MOSFETs() {
			if got := m.Dev.Mismatch; got != want[i][m.Name()] {
				t.Fatalf("trial %d dev %s: batch %+v, ApplyRandomMismatch %+v",
					i, m.Name(), got, want[i][m.Name()])
			}
		}
	}
}
