// Package sram implements the canonical victim of the paper's two threat
// axes: the 6T SRAM cell, built from minimum-size devices (so Pelgrom
// mismatch is maximal, §2) whose pMOS pull-ups sit under constant NBTI
// stress (one of them always holds a '0' gate, §3.3). The package builds
// cells in any technology, extracts hold/read static noise margins from
// simulated butterfly curves, and runs Monte-Carlo stability yield —
// fresh and aged.
package sram

import (
	"context"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
	"repro/internal/variation"
)

// CellConfig sizes a 6T cell. Ratios follow the classic design recipe:
// pull-down strongest (cell ratio ~2 for read stability), access in the
// middle, pull-up weakest (pull-up ratio <1 for writability).
type CellConfig struct {
	Tech *device.Technology
	// WPD, WPU, WPG are the pull-down, pull-up and pass-gate widths.
	WPD, WPU, WPG float64
	// L is the common channel length.
	L float64
	// TempK is the simulation temperature.
	TempK float64
}

// DefaultCell returns a minimum-length cell with a 2:1:1.5 ratio stack.
func DefaultCell(tech *device.Technology) CellConfig {
	lmin := tech.Lmin
	return CellConfig{
		Tech:  tech,
		WPD:   4 * lmin,
		WPU:   2 * lmin,
		WPG:   3 * lmin,
		L:     lmin,
		TempK: 300,
	}
}

// Validate checks the sizing.
func (c CellConfig) Validate() error {
	if c.Tech == nil {
		return fmt.Errorf("sram: missing technology")
	}
	if c.WPD <= 0 || c.WPU <= 0 || c.WPG <= 0 || c.L <= 0 {
		return fmt.Errorf("sram: non-positive geometry")
	}
	if c.TempK <= 0 {
		return fmt.Errorf("sram: non-positive temperature")
	}
	return nil
}

// Cell is one fabricated 6T instance: each device carries its own
// mismatch and damage.
type Cell struct {
	Config CellConfig
	// PD1, PU1 drive node Q (inverter 1); PD2, PU2 drive QB; PG1/PG2 are
	// the access devices on Q/QB.
	PD1, PU1, PG1, PD2, PU2, PG2 *device.Mosfet
}

// NewCell fabricates a nominal cell.
func NewCell(cfg CellConfig) (*Cell, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := cfg.Tech
	mk := func(p device.MOSParams) *device.Mosfet { return device.NewMosfet(p) }
	return &Cell{
		Config: cfg,
		PD1:    mk(t.NMOSParams(cfg.WPD, cfg.L, cfg.TempK)),
		PU1:    mk(t.PMOSParams(cfg.WPU, cfg.L, cfg.TempK)),
		PG1:    mk(t.NMOSParams(cfg.WPG, cfg.L, cfg.TempK)),
		PD2:    mk(t.NMOSParams(cfg.WPD, cfg.L, cfg.TempK)),
		PU2:    mk(t.PMOSParams(cfg.WPU, cfg.L, cfg.TempK)),
		PG2:    mk(t.NMOSParams(cfg.WPG, cfg.L, cfg.TempK)),
	}, nil
}

// Devices returns the six transistors (for mismatch sampling or aging).
func (c *Cell) Devices() []*device.Mosfet {
	return []*device.Mosfet{c.PD1, c.PU1, c.PG1, c.PD2, c.PU2, c.PG2}
}

// ApplyMismatch samples fresh local variation for all six devices.
func (c *Cell) ApplyMismatch(rng *mathx.RNG) {
	t := c.Config.Tech
	for _, d := range c.Devices() {
		d.Mismatch = variation.SampleMismatch(t, d.Params.W, d.Params.L, rng)
	}
}

// halfCellVTC sweeps the transfer curve of one cell half under hold or
// read conditions: input vin drives the gates of (pd, pu); the output node
// is loaded by the access transistor when read is true (bitline and
// wordline at VDD).
func (c *Cell) halfCellVTC(pd, pu, pg *device.Mosfet, vins []float64, read bool) ([]float64, error) {
	vdd := c.Config.Tech.VDD
	ck := circuit.New()
	ck.AddVSource("VDD", "vdd", "0", circuit.DC(vdd))
	ck.AddVSource("VIN", "in", "0", circuit.DC(0))
	ck.AddMOSFET("PD", "out", "in", "0", "0", pd)
	ck.AddMOSFET("PU", "out", "in", "vdd", "vdd", pu)
	if read {
		ck.AddVSource("VBL", "bl", "0", circuit.DC(vdd))
		ck.AddMOSFET("PG", "bl", "vdd", "out", "0", pg) // WL tied high
	}
	sols, err := ck.DCSweep("VIN", vins)
	if err != nil {
		return nil, fmt.Errorf("sram: half-cell sweep: %w", err)
	}
	out := make([]float64, len(sols))
	for i, s := range sols {
		out[i] = s.Voltage("out")
	}
	return out, nil
}

// Butterfly holds the two transfer curves of the cross-coupled pair.
type Butterfly struct {
	Vin []float64
	// V1 is inverter 1's VTC (input Q → output QB); V2 is inverter 2's.
	V1, V2 []float64
}

// ButterflyCurve simulates both halves under hold (read=false) or read
// (read=true) conditions at the given sweep resolution.
func (c *Cell) ButterflyCurve(points int, read bool) (*Butterfly, error) {
	if points < 8 {
		return nil, fmt.Errorf("sram: need at least 8 sweep points")
	}
	vins := mathx.Linspace(0, c.Config.Tech.VDD, points)
	v1, err := c.halfCellVTC(c.PD1, c.PU1, c.PG1, vins, read)
	if err != nil {
		return nil, err
	}
	v2, err := c.halfCellVTC(c.PD2, c.PU2, c.PG2, vins, read)
	if err != nil {
		return nil, err
	}
	return &Butterfly{Vin: vins, V1: v1, V2: v2}, nil
}

// SNM extracts the static noise margin from a butterfly: the side of the
// largest square that fits inside each lobe, computed in 45°-rotated
// coordinates (the standard Seevinck construction); the cell's SNM is the
// smaller lobe.
func (b *Butterfly) SNM() float64 {
	// Curve A: (x, V1(x)). Curve B mirrored: (V2(y), y).
	// In rotated coordinates u = (x−y)/√2, v = (x+y)/√2, the maximum
	// vertical gap between the curves equals the diagonal of the largest
	// inscribed square; side = gap/2 ... precisely: side = gap/√2 · (1/√2)
	// — see Seevinck et al., JSSC 1987: SNM = max diagonal gap / √2.
	type pt struct{ u, v float64 }
	rot := func(x, y float64) pt {
		return pt{u: (x - y) / math.Sqrt2, v: (x + y) / math.Sqrt2}
	}
	var a, bb []pt
	for i, x := range b.Vin {
		a = append(a, rot(x, b.V1[i]))
		bb = append(bb, rot(b.V2[i], b.Vin[i]))
	}
	// Interpolate both curves over a shared u grid and find the largest
	// positive gap (lobe 1) and largest negative gap (lobe 2).
	uMin, uMax := math.Inf(1), math.Inf(-1)
	for _, p := range append(append([]pt{}, a...), bb...) {
		if p.u < uMin {
			uMin = p.u
		}
		if p.u > uMax {
			uMax = p.u
		}
	}
	interp := func(ps []pt, u float64) (float64, bool) {
		// The rotated curves are single-valued in u except near the
		// metastable point; nearest-bracket linear interpolation is
		// adequate at our sweep densities.
		best := math.NaN()
		found := false
		for i := 1; i < len(ps); i++ {
			u0, u1 := ps[i-1].u, ps[i].u
			lo, hi := math.Min(u0, u1), math.Max(u0, u1)
			if u < lo || u > hi || lo == hi {
				continue
			}
			f := (u - u0) / (u1 - u0)
			v := ps[i-1].v + f*(ps[i].v-ps[i-1].v)
			if !found {
				best = v
				found = true
			} else if v > best {
				// Keep the outermost branch; lobes are measured between
				// extreme branches.
				best = v
			}
		}
		return best, found
	}
	maxPos, maxNeg := 0.0, 0.0
	for _, u := range mathx.Linspace(uMin, uMax, 256) {
		va, oka := interp(a, u)
		vb, okb := interp(bb, u)
		if !oka || !okb {
			continue
		}
		gap := va - vb
		if gap > maxPos {
			maxPos = gap
		}
		if -gap > maxNeg {
			maxNeg = -gap
		}
	}
	// Diagonal gap → square side: side = gap/√2.
	snm := math.Min(maxPos, maxNeg) / math.Sqrt2
	if snm < 0 {
		snm = 0
	}
	return snm
}

// HoldSNM returns the hold (standby) static noise margin in volts.
func (c *Cell) HoldSNM(points int) (float64, error) {
	b, err := c.ButterflyCurve(points, false)
	if err != nil {
		return 0, err
	}
	return b.SNM(), nil
}

// ReadSNM returns the read-disturb static noise margin in volts — always
// smaller than hold, because the access transistor pulls the low node up.
func (c *Cell) ReadSNM(points int) (float64, error) {
	b, err := c.ButterflyCurve(points, true)
	if err != nil {
		return 0, err
	}
	return b.SNM(), nil
}

// StabilityYield Monte-Carlos nCells mismatched cells and returns the
// fraction whose read SNM exceeds limit. Deterministic in seed.
func StabilityYield(cfg CellConfig, limit float64, nCells, points int, seed uint64) (variation.YieldEstimate, error) {
	if nCells <= 0 {
		return variation.YieldEstimate{}, fmt.Errorf("sram: need at least one cell")
	}
	camp := variation.Campaign{
		Trials: nCells,
		Seed:   seed,
		Spec:   &variation.Spec{Name: "readSNM", Lo: limit, Hi: math.Inf(1)},
		Trial: func(rng *mathx.RNG, _ int) (float64, error) {
			cell, err := NewCell(cfg)
			if err != nil {
				return 0, err
			}
			cell.ApplyMismatch(rng)
			return cell.ReadSNM(points)
		},
	}
	res, err := camp.Run(context.Background())
	if err != nil {
		return variation.YieldEstimate{}, err
	}
	// Failed and NaN cells are missing data here, out of both counts.
	return variation.YieldFromCounts(res.Stats.Pass, int(res.Stats.Moments.Count)), nil
}

// ApplyNBTIAsymmetry installs an NBTI threshold shift on pull-up 1 only —
// the cell that stored the same datum for its whole life: PU1's gate sat
// at 0 V (full stress) while PU2's sat at VDD (no stress). This static
// asymmetry is the classic SRAM aging failure mode.
func (c *Cell) ApplyNBTIAsymmetry(deltaVT float64) {
	d := device.FreshDamage()
	d.DeltaVT = deltaVT
	c.PU1.Damage = d
}
