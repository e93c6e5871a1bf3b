package sram

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/emc"
)

// WriteTrip measures the dynamic write-trip voltage of the cell: with the
// wordline asserted, the bitline on the '1' side ramps from VDD to 0 and
// the returned value is the bitline voltage at which the cell flips.
// Higher is better for writability (the cell gives up earlier in the
// ramp); a cell that never flips returns an error — a write failure, the
// yield-killing counterpart of read instability.
func (c *Cell) WriteTrip() (float64, error) {
	vdd := c.Config.Tech.VDD
	ck := circuit.New()
	ck.AddVSource("VDD", "vdd", "0", circuit.DC(vdd))
	ck.AddVSource("VWL", "wl", "0", circuit.DC(vdd))
	// Q side: bitline ramps down after the seed interval.
	const (
		tSeed = 2e-9
		tRamp = 40e-9
		tEnd  = 50e-9
	)
	ck.AddVSource("VBL1", "bl1", "0", circuit.PWL{
		Times:  []float64{0, tSeed * 2, tSeed*2 + tRamp},
		Values: []float64{vdd, vdd, 0},
	})
	ck.AddVSource("VBL2", "bl2", "0", circuit.DC(vdd))

	// The cross-coupled pair.
	ck.AddMOSFET("PD1", "q", "qb", "0", "0", c.PD1)
	ck.AddMOSFET("PU1", "q", "qb", "vdd", "vdd", c.PU1)
	ck.AddMOSFET("PD2", "qb", "q", "0", "0", c.PD2)
	ck.AddMOSFET("PU2", "qb", "q", "vdd", "vdd", c.PU2)
	ck.AddMOSFET("PG1", "bl1", "wl", "q", "0", c.PG1)
	ck.AddMOSFET("PG2", "bl2", "wl", "qb", "0", c.PG2)
	// Node capacitances keep the transient well-behaved.
	ck.AddCapacitor("CQ", "q", "0", 1e-15)
	ck.AddCapacitor("CQB", "qb", "0", 1e-15)
	// Seed pulse forces Q high initially so the metastable DC start
	// resolves to the '1' state before the bitline ramp begins.
	ck.AddISource("ISEED", "0", "q", circuit.Pulse{
		Low: 0, High: 50e-6, Rise: 1e-12, Fall: 1e-12, Width: tSeed,
	})

	wf, err := ck.Transient(circuit.TranSpec{
		Stop: tEnd, Step: tEnd / 2000,
		Integrator: circuit.Trapezoidal,
		Record:     []string{"q", "qb", "bl1"},
	})
	if err != nil {
		return 0, fmt.Errorf("sram: write transient: %w", err)
	}
	q := wf.Node("q")
	qb := wf.Node("qb")
	bl := wf.Node("bl1")
	// Sanity: the seed must have set the state.
	seedIdx := int(float64(len(wf.Times)) * (tSeed * 1.5) / tEnd)
	if q[seedIdx] <= qb[seedIdx] {
		return 0, fmt.Errorf("sram: seed failed to set the cell (q=%g qb=%g)", q[seedIdx], qb[seedIdx])
	}
	diff := make([]float64, len(q))
	for i := range q {
		diff[i] = q[i] - qb[i]
	}
	flips := emc.CrossingTimes(wf.Times, diff, 0, false)
	if len(flips) == 0 {
		return 0, fmt.Errorf("sram: cell never flipped — write failure")
	}
	// Bitline voltage at the flip instant.
	tFlip := flips[len(flips)-1]
	for i := 1; i < len(wf.Times); i++ {
		if wf.Times[i] >= tFlip {
			return bl[i], nil
		}
	}
	return bl[len(bl)-1], nil
}

func TestWriteTripInRange(t *testing.T) {
	cell, err := NewCell(DefaultCell(device.MustTech("65nm")))
	if err != nil {
		t.Fatal(err)
	}
	trip, err := cell.WriteTrip()
	if err != nil {
		t.Fatal(err)
	}
	vdd := cell.Config.Tech.VDD
	if trip <= 0 || trip >= vdd {
		t.Fatalf("write trip %g outside (0, VDD)", trip)
	}
	// Typical cells trip somewhere in the lower half of the swing.
	if trip > 0.8*vdd {
		t.Errorf("trip %g suspiciously close to VDD — cell too easy to write", trip)
	}
}

func TestStrongerAccessWritesEasier(t *testing.T) {
	tech := device.MustTech("65nm")
	trip := func(wpgScale float64) float64 {
		cfg := DefaultCell(tech)
		cfg.WPG *= wpgScale
		cell, err := NewCell(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v, err := cell.WriteTrip()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	weak := trip(0.6)
	strong := trip(1.8)
	if strong <= weak {
		t.Errorf("stronger access device must flip earlier in the ramp: %g <= %g", strong, weak)
	}
}

func TestStrongerPullUpWritesHarder(t *testing.T) {
	tech := device.MustTech("65nm")
	trip := func(wpuScale float64) float64 {
		cfg := DefaultCell(tech)
		cfg.WPU *= wpuScale
		cell, err := NewCell(cfg)
		if err != nil {
			t.Fatal(err)
		}
		v, err := cell.WriteTrip()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	weak := trip(0.7)
	strong := trip(2.0)
	if strong >= weak {
		t.Errorf("stronger pull-up must resist the write: trip %g >= %g", strong, weak)
	}
}

func TestReadWriteConflict(t *testing.T) {
	// The classic SRAM design tension: upsizing the access device helps
	// writes but hurts read stability. Verify both directions at once.
	tech := device.MustTech("65nm")
	measure := func(wpgScale float64) (snm, trip float64) {
		cfg := DefaultCell(tech)
		cfg.WPG *= wpgScale
		cell, err := NewCell(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snm, err = cell.ReadSNM(31)
		if err != nil {
			t.Fatal(err)
		}
		trip, err = cell.WriteTrip()
		if err != nil {
			t.Fatal(err)
		}
		return snm, trip
	}
	snmSmall, tripSmall := measure(0.7)
	snmBig, tripBig := measure(1.6)
	if snmBig >= snmSmall {
		t.Errorf("bigger access should hurt read SNM: %g >= %g", snmBig, snmSmall)
	}
	if tripBig <= tripSmall {
		t.Errorf("bigger access should help writes: %g <= %g", tripBig, tripSmall)
	}
}
