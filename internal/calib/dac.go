// Package calib implements the post-fabrication calibration study of the
// paper's Section 5.1: a segmented current-steering DAC whose unary MSB
// sources carry Pelgrom-sampled mismatch errors, the Switching-Sequence
// Post-Adjustment (SSPA) calibration that re-orders those sources at run
// time, INL/DNL extraction, and the area-vs-accuracy trade model behind the
// Fig. 5 claim that a calibrated DAC needs only ~6 % of the analog area of
// an intrinsically accurate one.
package calib

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/mathx"
)

// DACConfig describes a segmented current-steering DAC: the UnaryBits MSBs
// drive 2^UnaryBits − 1 equal sources of weight 2^BinaryBits LSB each; the
// BinaryBits LSBs drive binary-weighted sources.
type DACConfig struct {
	UnaryBits  int
	BinaryBits int
	// SigmaUnit is the relative standard deviation of a single 1-LSB unit
	// current source, σ(I)/I. A source of weight w is built from w units,
	// so its absolute error is σ(w) = SigmaUnit·√w LSB.
	SigmaUnit float64
}

// Bits returns the total resolution.
func (c DACConfig) Bits() int { return c.UnaryBits + c.BinaryBits }

// Codes returns the number of input codes, 2^Bits.
func (c DACConfig) Codes() int { return 1 << c.Bits() }

// Validate checks the configuration.
func (c DACConfig) Validate() error {
	switch {
	case c.UnaryBits < 1 || c.BinaryBits < 0:
		return fmt.Errorf("calib: bad segmentation %d+%d", c.UnaryBits, c.BinaryBits)
	case c.Bits() > 16:
		return fmt.Errorf("calib: %d bits is beyond this model", c.Bits())
	case c.SigmaUnit < 0:
		return fmt.Errorf("calib: negative SigmaUnit %g", c.SigmaUnit)
	}
	return nil
}

// Paper14Bit returns the configuration of the Chen/Gielen JSSC DAC the
// paper shows in Fig. 5: 14 bits segmented 6 unary + 8 binary.
func Paper14Bit(sigmaUnit float64) DACConfig {
	return DACConfig{UnaryBits: 6, BinaryBits: 8, SigmaUnit: sigmaUnit}
}

// DAC is one fabricated instance: nominal weights plus sampled errors.
type DAC struct {
	Config DACConfig
	// unaryZ[i] is unary source i's standard-normal deviate.
	unaryZ []float64
	// unaryErr[i] is the absolute error (in LSB) of unary source i.
	unaryErr []float64
	// binErr[b] is the absolute error (in LSB) of binary source b (weight
	// 2^b).
	binErr []float64
	// seq[k] is the index of the unary source switched on k-th; SSPA
	// permutes this.
	seq []int
}

// NewDAC fabricates a DAC instance at the configured mismatch level: it
// draws every source's deviate from rng and hands them to NewDACFromErrors.
func NewDAC(cfg DACConfig, rng *mathx.RNG) (*DAC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	z := make([]float64, (1<<cfg.UnaryBits)-1+cfg.BinaryBits)
	for i := range z {
		z[i] = rng.Norm()
	}
	return NewDACFromErrors(cfg, z[:len(z)-cfg.BinaryBits], z[len(z)-cfg.BinaryBits:])
}

// NewDACFromErrors builds a DAC with externally supplied standard-normal
// deviates for each source (unary first, then binary LSB→MSB), scaled by
// the configured SigmaUnit and the √weight law. NewDAC draws them from an
// RNG; stratified (Latin-hypercube) sampling supplies its own.
func NewDACFromErrors(cfg DACConfig, unaryZ, binZ []float64) (*DAC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nUnary := (1 << cfg.UnaryBits) - 1
	if len(unaryZ) != nUnary || len(binZ) != cfg.BinaryBits {
		return nil, fmt.Errorf("calib: need %d unary and %d binary deviates, got %d and %d",
			nUnary, cfg.BinaryBits, len(unaryZ), len(binZ))
	}
	unaryWeight := float64(int(1) << cfg.BinaryBits)
	d := &DAC{
		Config:   cfg,
		unaryZ:   append([]float64(nil), unaryZ...),
		unaryErr: make([]float64, nUnary),
		binErr:   make([]float64, cfg.BinaryBits),
		seq:      make([]int, nUnary),
	}
	for i, z := range unaryZ {
		d.unaryErr[i] = cfg.SigmaUnit * math.Sqrt(unaryWeight) * z
		d.seq[i] = i
	}
	for b, z := range binZ {
		w := float64(int(1) << b)
		d.binErr[b] = cfg.SigmaUnit * math.Sqrt(w) * z
	}
	return d, nil
}

// ResetSequence restores the thermometer (as-drawn) switching order.
func (d *DAC) ResetSequence() {
	for i := range d.seq {
		d.seq[i] = i
	}
}

// Sequence returns a copy of the current switching sequence.
func (d *DAC) Sequence() []int { return append([]int(nil), d.seq...) }

// SetSequence installs an explicit switching sequence (must be a
// permutation of the unary indices).
//
// test seam: BenchmarkAblationSSPA in the root package installs the
// ablated switching sequences through it.
func (d *DAC) SetSequence(seq []int) error {
	if len(seq) != len(d.seq) {
		return fmt.Errorf("calib: sequence length %d, want %d", len(seq), len(d.seq))
	}
	seen := make([]bool, len(seq))
	for _, s := range seq {
		if s < 0 || s >= len(seq) || seen[s] {
			return fmt.Errorf("calib: sequence is not a permutation")
		}
		seen[s] = true
	}
	copy(d.seq, seq)
	return nil
}

// TransferCurve returns the analog output, in LSB units and including all
// source errors, for every input code.
func (d *DAC) TransferCurve() []float64 {
	// Incremental evaluation: O(codes) instead of O(codes × sources).
	n := d.Config.Codes()
	out := make([]float64, n)
	binBits := d.Config.BinaryBits
	binMask := (1 << binBits) - 1
	unaryWeight := float64(int(1) << binBits)

	// Precompute binary sub-curve for one segment.
	binCurve := make([]float64, 1<<binBits)
	for c := 1; c < len(binCurve); c++ {
		v := 0.0
		for b := 0; b < binBits; b++ {
			if c&(1<<b) != 0 {
				v += float64(int(1)<<b) + d.binErr[b]
			}
		}
		binCurve[c] = v
	}
	base := 0.0
	seg := -1
	for code := 0; code < n; code++ {
		s := code >> binBits
		if s != seg {
			if s > 0 {
				base += unaryWeight + d.unaryErr[d.seq[s-1]]
			}
			seg = s
		}
		out[code] = base + binCurve[code&binMask]
	}
	return out
}

// INL returns the endpoint-corrected integral nonlinearity in LSB for a
// transfer curve: the deviation from the straight line through the first
// and last points.
func INL(curve []float64) []float64 {
	n := len(curve)
	if n < 2 {
		panic("calib: INL needs at least two codes")
	}
	out := make([]float64, n)
	slope := (curve[n-1] - curve[0]) / float64(n-1)
	for i := range curve {
		out[i] = curve[i] - (curve[0] + slope*float64(i))
	}
	return out
}

// DNL returns the differential nonlinearity in LSB: step size deviation
// from the average step.
func DNL(curve []float64) []float64 {
	n := len(curve)
	if n < 2 {
		panic("calib: DNL needs at least two codes")
	}
	avg := (curve[n-1] - curve[0]) / float64(n-1)
	out := make([]float64, n-1)
	for i := 1; i < n; i++ {
		out[i-1] = (curve[i]-curve[i-1])/avg - 1
	}
	return out
}

// MaxAbs returns max |x|.
func MaxAbs(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// MaxINL fabricates nothing: it reports the worst |INL| of this DAC
// instance with its current switching sequence.
func (d *DAC) MaxINL() float64 { return MaxAbs(INL(d.TransferCurve())) }

// MaxDNL reports the worst |DNL| of this instance.
func (d *DAC) MaxDNL() float64 { return MaxAbs(DNL(d.TransferCurve())) }

// CalibrateSSPA runs Switching-Sequence Post-Adjustment: using the
// measured source errors (the silicon implementation measures them with a
// simple current comparator), it greedily re-orders the unary switching
// sequence so the running error sum stays as close to zero as possible.
// The random-walk INL of the thermometer order collapses to a bounded
// ripple. measurementNoise adds σ (LSB) of comparator noise to each
// measured error, 0 for ideal measurement, which balances the sources'
// deviates instead: they rank as the errors do (each is σ·√w times its
// deviate), and the sequence is then the same at every σ.
func (d *DAC) CalibrateSSPA(measurementNoise float64, rng *mathx.RNG) {
	n := len(d.unaryErr)
	x := append([]float64(nil), d.unaryZ...)
	if measurementNoise > 0 {
		for i, e := range d.unaryErr {
			x[i] = e + measurementNoise*rng.Norm()
		}
	}
	// The total error S = Σ x is fixed by fabrication — no ordering
	// changes it — and endpoint-corrected INL measures the deviation of
	// the running sum from the ramp k·S/n. Subtracting the per-step ramp
	// increment turns the problem into classic prefix-sum balancing:
	// arrange x_i = e_i − S/n (which sum to exactly 0) so that every
	// prefix stays as close to zero as possible.
	total := 0.0
	for _, e := range x {
		total += e
	}
	step := total / float64(n)
	for i := range x {
		x[i] -= step
	}

	// order: indices sorted by |x| descending, computed once.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return math.Abs(x[order[a]]) > math.Abs(x[order[b]]) })

	// Greedy prefix balancing: at each position pick the unused element —
	// preferring the most dangerous (largest |x|) on ties via the
	// pre-sorted candidate order, from which used elements are removed —
	// that keeps the running sum closest to zero. The ordering-independent
	// total has already been absorbed into x, so |prefix| IS the
	// segment-boundary INL.
	seq := make([]int, 0, n)
	cum := 0.0
	for len(order) > 0 {
		best, bestScore := 0, math.Inf(1)
		for k, e := range order {
			if score := math.Abs(cum + x[e]); score < bestScore {
				best, bestScore = k, score
			}
		}
		seq = append(seq, order[best])
		cum += x[order[best]]
		order = append(order[:best], order[best+1:]...)
	}

	// 2-opt refinement: pairwise swaps that reduce the worst prefix
	// deviation clean up greedy's tail artefacts. A swap at (i, j) resumes
	// from seq[:i]'s running sum c and worst |prefix|, and maxDev stops at
	// bound, where the swap is rejected anyway.
	maxDev := func(s []int, c, worst, bound float64) float64 {
		for _, idx := range s {
			c += x[idx]
			if a := math.Abs(c); a > worst {
				if worst = a; worst >= bound {
					break
				}
			}
		}
		return worst
	}
	bestDev := maxDev(seq, 0, 0, math.Inf(1))
	for sweep := 0; sweep < 8; sweep++ {
		improved := false
		c, worst := 0.0, 0.0
		for i := 0; i < n-1 && worst < bestDev; i++ {
			for j := i + 1; j < n; j++ {
				seq[i], seq[j] = seq[j], seq[i]
				if dv := maxDev(seq[i:], c, worst, bestDev); dv < bestDev {
					bestDev = dv
					improved = true
				} else {
					seq[i], seq[j] = seq[j], seq[i]
				}
			}
			worst = maxDev(seq[i:i+1], c, worst, math.Inf(1))
			c += x[seq[i]]
		}
		if !improved {
			break
		}
	}
	copy(d.seq, seq)
}
