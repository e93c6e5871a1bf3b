package repro

// Sparse-backend and batched-campaign benchmarks behind BENCH_6.json and
// the README performance crossover table. Two questions are measured:
//
//  1. Where does the sparse Markowitz LU overtake the dense workspace
//     solver as the MNA system grows? (BenchmarkLadderOP, dense vs sparse
//     at matched sizes — the warm re-solve pattern of every Monte-Carlo
//     and aging loop.)
//  2. What does a Monte-Carlo campaign cost per trial when every worker
//     keeps one die for the whole run? (BenchmarkMCCampaign through
//     core.Simulator and BenchmarkMCService through jobspec, on the
//     Fig. 3 current reference; BenchmarkMCServiceSparse through jobspec
//     on the 254-stage ladder.) Each reports allocations: a warm trial
//     allocates nothing, so what remains is per-die and per-chunk.
//
// Run with: make bench-sparse

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/emc"
	"repro/internal/jobspec"
	"repro/internal/variation"
)

// buildLadder constructs a resistively-coupled chain of diode-connected
// NMOS stages — an arbitrarily scalable testbench whose MNA matrix keeps a
// few entries per row, the shape real analog netlists have and the sparse
// backend exists for. Unknowns = stages + 2 (stage nodes, rail, source
// branch).
func buildLadder(stages int) *circuit.Circuit {
	tech := device.MustTech("180nm")
	c := circuit.New()
	c.AddVSource("VSUP", "rail", "0", circuit.DC(tech.VDD))
	prev := "rail"
	for i := 0; i < stages; i++ {
		n := fmt.Sprintf("n%04d", i)
		c.AddResistor(fmt.Sprintf("RF%04d", i), "rail", n, 30e3)
		c.AddMOSFET(fmt.Sprintf("M%04d", i), n, n, "0", "0",
			device.NewMosfet(tech.NMOSParams(2e-6, 4*tech.Lmin, 300)))
		c.AddResistor(fmt.Sprintf("RC%04d", i), prev, n, 50e3)
		prev = n
	}
	return c
}

// BenchmarkLadderOP measures the warm operating-point re-solve (perturb
// one device, re-solve — the Monte-Carlo access pattern) on ladders of
// growing size, on both matrix backends.
func BenchmarkLadderOP(b *testing.B) {
	for _, stages := range []int{62, 126, 254, 510} {
		for _, backend := range []circuit.MatrixBackend{circuit.BackendDense, circuit.BackendSparse} {
			c := buildLadder(stages)
			c.SetMatrixBackend(backend)
			if _, err := c.OperatingPoint(); err != nil {
				b.Fatal(err)
			}
			dev := c.MOSFETList()[0].Dev
			name := fmt.Sprintf("%v/n=%d", backend, c.NumUnknowns())
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					dev.Mismatch.DeltaVT0 = 1e-3 * float64(i%5)
					if _, err := c.OperatingPoint(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// campaignSim is the Fig. 3 current reference wrapped as a reliability
// Monte-Carlo campaign: per trial, sample mismatch and measure the output
// voltage at time zero plus one mission checkpoint.
func campaignSim() *core.Simulator {
	tech := device.MustTech("180nm")
	return &core.Simulator{
		Build: func() (*circuit.Circuit, error) {
			return emc.BuildCurrentReference(tech, true).Circuit, nil
		},
		Tech: tech,
		Metrics: []core.Metric{{
			Name: "vout",
			Measure: func(c *circuit.Circuit) (float64, error) {
				if err := c.SolveOP(); err != nil {
					return 0, err
				}
				return c.Voltage("out"), nil
			},
			Spec: variation.Spec{Name: "vout", Lo: 0, Hi: 10},
		}},
		Seed: 7,
	}
}

// BenchmarkMCCampaign runs a 1000-trial mismatch campaign per iteration
// and reports trials per second.
func BenchmarkMCCampaign(b *testing.B) {
	const trials = 1000
	mission := core.Mission{Duration: 3.156e8, TempK: 350, Checkpoints: 1}
	s := campaignSim()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := s.RunCtx(context.Background(), trials, mission)
		if err != nil {
			b.Fatal(err)
		}
		if res.Errors > 0 {
			b.Fatalf("%d trials errored", res.Errors)
		}
	}
	b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

// currentRefDeck is the Fig. 3 current reference as a netlist, for the
// service-path campaign benchmark.
const currentRefDeck = `
* fig. 3 current reference, 180nm
.tech 180nm
VSUP rail 0 DC 1.8
RREF rail gate 30k
M1 gate gate 0 0 NMOS W=2u L=720n
M2 out gate 0 0 NMOS W=2u L=720n
RLOAD rail out 10k
CFILT gate 0 20p
.end
`

// BenchmarkMCService measures the jobspec Monte-Carlo dispatch path — the
// one the relsim CLI and HTTP job server share — at 1000 trials per
// iteration.
func BenchmarkMCService(b *testing.B) {
	const trials = 1000
	spec := &jobspec.Spec{
		Analysis: jobspec.KindMC, Netlist: currentRefDeck, Seed: 7,
		MC: &jobspec.MCParams{Trials: trials, Node: "out"},
	}
	benchMCSpec(b, spec, trials)
}

// ladderDeck renders buildLadder's chain as a netlist: the mc_sparse
// end-to-end workload's deck.
func ladderDeck(stages int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "* %d-stage diode ladder, 180nm\n.tech 180nm\nVSUP rail 0 DC 1.8\n", stages)
	prev := "rail"
	for i := 0; i < stages; i++ {
		n := fmt.Sprintf("n%04d", i)
		fmt.Fprintf(&sb, "RF%04d rail %s 30k\nM%04d %s %s 0 0 NMOS W=2u L=720n\nRC%04d %s %s 50k\n",
			i, n, i, n, n, i, prev, n)
		prev = n
	}
	sb.WriteString(".end\n")
	return sb.String()
}

// BenchmarkMCServiceSparse is BenchmarkMCService on the 254-stage ladder
// (256 unknowns, sparse backend) at 400 trials per iteration: the
// mc_sparse end-to-end workload's job without the server around it.
func BenchmarkMCServiceSparse(b *testing.B) {
	const trials, stages = 400, 254
	spec := &jobspec.Spec{
		Analysis: jobspec.KindMC, Netlist: ladderDeck(stages), Seed: 7,
		MC: &jobspec.MCParams{Trials: trials, Node: fmt.Sprintf("n%04d", stages-1)},
	}
	spec.ApplyDefaults()
	benchMCSpec(b, spec, trials)
}

// benchMCSpec executes an MC spec b.N times, reporting allocations and
// trials per second.
func benchMCSpec(b *testing.B, spec *jobspec.Spec, trials int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := jobspec.Execute(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if res.MC.Failures > 0 {
			b.Fatalf("%d trials failed", res.MC.Failures)
		}
	}
	b.ReportMetric(float64(trials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}
