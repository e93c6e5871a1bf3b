package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/emc"
	"repro/internal/variation"
)

// resultDigest hashes every deterministic output of a reliability run:
// per-checkpoint yields, metric moments, the sorted failure times, the
// Newton total and the structured error phases. Wall time and the obs
// snapshot are excluded — they are the only fields allowed to differ
// between two runs of the same (Seed, trials, mission).
func resultDigest(r *Result) string {
	h := sha256.New()
	u := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	for _, y := range r.Yield {
		u(uint64(y.Pass))
		u(uint64(y.Total))
		f(y.Yield)
		f(y.Lo95)
		f(y.Hi95)
	}
	for _, row := range r.MetricStats {
		for _, m := range row {
			u(uint64(m.Count))
			f(m.Mean)
			f(m.M2)
			f(m.Min)
			f(m.Max)
		}
	}
	for _, t := range r.FailureTimes {
		f(t)
	}
	u(uint64(r.Telemetry.NewtonIterations))
	for _, te := range r.TrialErrors {
		u(uint64(te.Index))
		_, _ = io.WriteString(h, te.Phase)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fig3Sim is the Fig. 3 current reference as a reliability campaign —
// the same vehicle as the root package's BenchmarkMCCampaign.
func fig3Sim() *Simulator {
	tech := device.MustTech("180nm")
	return &Simulator{
		Build: func() (*circuit.Circuit, error) {
			return emc.BuildCurrentReference(tech, true).Circuit, nil
		},
		Tech: tech,
		Metrics: []Metric{{
			Name: "vout",
			Measure: func(c *circuit.Circuit) (float64, error) {
				sol, err := c.OperatingPoint()
				if err != nil {
					return 0, err
				}
				return sol.Voltage("out"), nil
			},
			Spec: variation.Spec{Name: "vout", Lo: 0, Hi: 10},
		}},
		Seed: 7,
	}
}

// panickySim is ampSim with a Measure that panics on every die whose
// output lands above threshold — a deterministic, die-dependent fault, so
// the digest also pins error accounting and the dropping of faulted dies
// from circuit reuse.
func panickySim() *Simulator {
	s := ampSim("90nm", 42)
	inner := s.Metrics[0].Measure
	s.Metrics[0].Measure = func(c *circuit.Circuit) (float64, error) {
		v, err := inner(c)
		if err == nil && v > 0.19 {
			panic("output above threshold")
		}
		return v, err
	}
	return s
}

// TestGoldenResults pins the complete deterministic output of the
// reference campaigns to SHA-256 digests, so any change to trial
// dispatch, circuit reuse or the result fold that moves a single bit of
// a yield, moment, failure time or Newton count fails here. The amp90 and
// fig3 digests were recorded when every trial built a fresh circuit, so
// they also pin that pooling one die per worker moves nothing.
func TestGoldenResults(t *testing.T) {
	cases := []struct {
		name    string
		sim     *Simulator
		trials  int
		mission Mission
		want    string
	}{
		{"amp90", ampSim("90nm", 42), 64,
			Mission{Duration: 5 * year, TempK: 380, Checkpoints: 4},
			"f1d3af582febe05e6637cd9d690920a57233a0d53659d5d1a5e7ecaac6513b0f"},
		{"amp90/panicky", panickySim(), 64,
			Mission{Duration: 5 * year, TempK: 380, Checkpoints: 4},
			"f785ce9dc103b27d65eab13d90716d6cb0272adbe8c951bb416ac01f070b7260"},
		{"fig3", fig3Sim(), 1000,
			Mission{Duration: 3.156e8, TempK: 350, Checkpoints: 1},
			"e0fa570d32eb4eb554267271fe9b565f05174fc9024bd52ac9aeed3b73bc31b5"},
	}
	for _, tc := range cases {
		res, err := tc.sim.RunCtx(context.Background(), tc.trials, tc.mission)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := resultDigest(res); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
