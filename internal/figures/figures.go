// Package figures regenerates every evaluation artefact of the paper —
// Figures 1-6 and Equations 1-4 — together with the studies around them
// and the design-choice ablations of DESIGN.md, as text series plus
// structured results that the package's tests assert on. cmd/figures
// prints them. Each generator is deterministic for a fixed seed.
package figures

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/aging"
	"repro/internal/device"
	"repro/internal/mathx"
	"repro/internal/report"
	"repro/internal/variation"
)

// Year is one year in seconds.
const Year = 365.25 * 24 * 3600

// must panics with the failing step's name: the generators run fixed,
// known-good studies, so an error is a bug.
func must(what string, err error) {
	if err != nil {
		panic(fmt.Sprintf("figures: %s failed: %v", what, err))
	}
}

// Fig1Result is the mismatch-trend reproduction: AVT versus oxide
// thickness, Monte-Carlo-extracted from simulated device pairs, against
// Tuinhout's 1 mV·µm/nm benchmark.
type Fig1Result struct {
	ToxNM []float64
	// ExtractedAVT is the MC-extracted coefficient in mV·µm.
	ExtractedAVT []float64
	// Benchmark is the 1 mV·µm/nm line.
	Benchmark []float64
	// MaxRelErrAbove10nm is the worst relative deviation of the extraction
	// from the benchmark for Tox ≥ 10 nm (should be small: the rule holds).
	MaxRelErrAbove10nm float64
	// MinRatioBelow10nm is the minimum extracted/benchmark ratio below
	// 10 nm (should exceed 1: matching improves more slowly than the rule).
	MinRatioBelow10nm float64
}

// Fig1 extracts AVT per technology node by fabricating nPairs matched
// pairs in Monte Carlo and measuring σ(ΔVT)·√(W·L).
func Fig1(nPairs int, seed uint64) (*Fig1Result, string) {
	res := &Fig1Result{MinRatioBelow10nm: math.Inf(1)}
	w, l := 10e-6, 1e-6 // large devices, as in the Tuinhout measurements
	rng := mathx.NewRNG(seed)
	for _, tech := range device.SortedByTox() {
		var run mathx.Running
		for i := 0; i < nPairs; i++ {
			run.Add(variation.SamplePairDeltaVT(&tech, w, l, 0, rng))
		}
		avt := run.StdDev() * math.Sqrt(w*l) // V·m
		avtMVUM := avt * 1e9                 // mV·µm
		bench := device.TuinhoutBenchmarkAVT(tech.ToxNM)
		res.ToxNM = append(res.ToxNM, tech.ToxNM)
		res.ExtractedAVT = append(res.ExtractedAVT, avtMVUM)
		res.Benchmark = append(res.Benchmark, bench)
		if tech.ToxNM >= 10 {
			if rel := math.Abs(avtMVUM-bench) / bench; rel > res.MaxRelErrAbove10nm {
				res.MaxRelErrAbove10nm = rel
			}
		} else if ratio := avtMVUM / bench; ratio < res.MinRatioBelow10nm {
			res.MinRatioBelow10nm = ratio
		}
	}
	t := report.NewTable("Fig. 1 — AVT vs gate oxide thickness (extracted from MC device pairs)",
		"Tox [nm]", "AVT extracted [mV·µm]", "1 mV·µm/nm benchmark")
	for i := range res.ToxNM {
		t.AddRowf(res.ToxNM[i], res.ExtractedAVT[i], res.Benchmark[i])
	}
	return res, t.String() + fmt.Sprintf(
		"Tox ≥ 10 nm: within %.1f%% of the benchmark; below 10 nm: extracted/benchmark ≥ %.2f\n",
		100*res.MaxRelErrAbove10nm, res.MinRatioBelow10nm)
}

// Fig2Result is the fresh vs degraded I-V reproduction.
type Fig2Result struct {
	VDS []float64
	// Fresh[g] and Aged[g] are the drain-current curves per VGS step.
	VGSSteps    []float64
	Fresh, Aged [][]float64
	// SatCurrentDropPct is the relative saturation-current reduction at
	// the highest VGS step.
	SatCurrentDropPct float64
}

// Fig2 produces the I-V characteristics of a 90 nm nMOS before and after
// ten years of worst-case stress (NBTI+HCI composite damage).
func Fig2() (*Fig2Result, string) {
	tech := device.MustTech("90nm")
	fresh := device.NewMosfet(tech.NMOSParams(1e-6, 90e-9, 300))
	aged := device.NewMosfet(tech.NMOSParams(1e-6, 90e-9, 300))

	// Accumulate damage from both mechanisms under DC worst-case stress.
	models := aging.Models{NBTI: aging.DefaultNBTI(), HCI: aging.DefaultHCI()}
	ager := aging.NewDeviceAger(models, aged, mathx.NewRNG(1))
	ager.Step(aging.Stress{Vgs: tech.VDD, Vds: tech.VDD, Duty: 1, TempK: 400}, 10*Year)

	res := &Fig2Result{
		VDS:      mathx.Linspace(0, tech.VDD, 23),
		VGSSteps: []float64{0.6, 0.8, 1.0, tech.VDD},
	}
	for _, vgs := range res.VGSSteps {
		var f, a []float64
		for _, vds := range res.VDS {
			f = append(f, fresh.Eval(vgs, vds, 0).ID)
			a = append(a, aged.Eval(vgs, vds, 0).ID)
		}
		res.Fresh = append(res.Fresh, f)
		res.Aged = append(res.Aged, a)
	}
	nf := res.Fresh[len(res.Fresh)-1]
	na := res.Aged[len(res.Aged)-1]
	res.SatCurrentDropPct = 100 * (nf[len(nf)-1] - na[len(na)-1]) / nf[len(nf)-1]

	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — IDS-VDS of a fresh vs degraded 90nm nMOS (10y worst-case stress)\n")
	fmt.Fprintf(&b, "damage: ΔVT=%s, mobility×%.3f\n",
		report.SI(aged.Damage.DeltaVT, "V"), aged.Damage.MobilityFactor)
	t := report.NewTable("", "VDS [V]", "fresh ID [A] @VGSmax", "aged ID [A] @VGSmax")
	last := len(res.VGSSteps) - 1
	for i, v := range res.VDS {
		t.AddRowf(v, res.Fresh[last][i], res.Aged[last][i])
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "saturation current drop: %.1f%%\n", res.SatCurrentDropPct)
	return res, b.String()
}
