package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/variation"
)

// mirror builds an NMOS current mirror with a load capacitor: dense, two
// MOSFETs, and a transient worth running.
func mirror(tech *device.Technology) *circuit.Circuit {
	c := circuit.New()
	c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
	c.AddResistor("RREF", "vdd", "g", 30e3)
	c.AddMOSFET("M1", "g", "g", "0", "0", device.NewMosfet(tech.NMOSParams(2e-6, 2*tech.Lmin, 300)))
	c.AddMOSFET("M2", "d", "g", "0", "0", device.NewMosfet(tech.NMOSParams(2e-6, 2*tech.Lmin, 300)))
	c.AddResistor("RL", "vdd", "d", 10e3)
	c.AddCapacitor("CL", "d", "0", 1e-12)
	return c
}

// TestMetricsExactAfterParallelSolves runs every public solve entry point
// concurrently, each goroutine on its own circuits, with the whole stack
// instrumented. The solver layers stage their metrics in per-owner
// buffers, so this pins the flush contract: once the calls have returned,
// every registry delta equals the telemetry the circuits and the campaign
// report themselves — not approximately, exactly.
func TestMetricsExactAfterParallelSolves(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)
	before := reg.Snapshot()

	tech := device.MustTech("180nm")
	var denseIters, sparseIters, ops atomic.Int64
	const trials, opCalls = 300, 40
	var wg sync.WaitGroup
	run := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(); err != nil {
				t.Error(err)
			}
		}()
	}
	var campaign *variation.MCResult
	run(func() error { // Campaign.Run: one fresh die per trial
		camp := &variation.Campaign{Trials: trials, Seed: 5, Trial: func(rng *mathx.RNG, _ int) (float64, error) {
			c := mirror(tech)
			variation.ApplyRandomMismatch(c, tech, variation.NominalCorner(), rng)
			sol, err := c.OperatingPoint()
			denseIters.Add(c.NewtonIterations())
			ops.Add(1)
			if err != nil {
				return 0, err
			}
			return sol.Voltage("d"), nil
		}}
		var err error
		campaign, err = camp.Run(context.Background())
		return err
	})
	run(func() error { // repeated warm operating points
		c := mirror(tech)
		v, _ := c.VSourceByName("VDD")
		for i := 0; i < opCalls; i++ {
			v.W = circuit.DC(tech.VDD * (0.9 + 0.005*float64(i)))
			if _, err := c.OperatingPoint(); err != nil {
				return err
			}
		}
		denseIters.Add(c.NewtonIterations())
		ops.Add(opCalls)
		return nil
	})
	run(func() error { // DC sweep: one cold operating point, then warm steps
		c := mirror(tech)
		vals := make([]float64, 25)
		for i := range vals {
			vals[i] = 0.05 * tech.VDD * float64(i+1) / 1.25
		}
		_, err := c.DCSweep("VDD", vals)
		denseIters.Add(c.NewtonIterations())
		ops.Add(1)
		return err
	})
	run(func() error { // transient: initial operating point, then steps
		c := mirror(tech)
		_, err := c.Transient(circuit.TranSpec{Stop: 2e-9, Step: 1e-10, Record: []string{"d"}})
		denseIters.Add(c.NewtonIterations())
		ops.Add(1)
		return err
	})
	run(func() error { // the same circuit forced onto the sparse LU
		c := mirror(tech)
		c.SetMatrixBackend(circuit.BackendSparse)
		for i := 0; i < opCalls; i++ {
			if _, err := c.OperatingPoint(); err != nil {
				return err
			}
		}
		if !c.UsingSparse() {
			t.Error("forced-sparse circuit fell back to dense")
		}
		sparseIters.Add(c.NewtonIterations())
		ops.Add(opCalls)
		return nil
	})
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	after := reg.Snapshot()
	counter := func(name string) int64 {
		b, _ := before.Counter(name)
		a, ok := after.Counter(name)
		if !ok {
			t.Fatalf("counter %q missing from snapshot", name)
		}
		return a - b
	}
	hcount := func(name string) int64 {
		a := after.Histogram(name)
		if a == nil {
			t.Fatalf("histogram %q missing from snapshot", name)
		}
		if b := before.Histogram(name); b != nil {
			return a.Count - b.Count
		}
		return a.Count
	}
	dense, sparse := denseIters.Load(), sparseIters.Load()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"linalg_factor_total", counter("linalg_factor_total"), dense},
		{"linalg_solve_total", counter("linalg_solve_total"), dense},
		{"linalg_factor_seconds count", hcount("linalg_factor_seconds"), dense},
		{"linalg_solve_seconds count", hcount("linalg_solve_seconds"), dense},
		{"linalg_sparse_factor_total", counter("linalg_sparse_factor_total"), sparse},
		{"linalg_sparse_solve_total", counter("linalg_sparse_solve_total"), sparse},
		{"linalg_sparse_factor_seconds count", hcount("linalg_sparse_factor_seconds"), sparse},
		{"linalg_sparse_solve_seconds count", hcount("linalg_sparse_solve_seconds"), sparse},
		{"circuit_sparse_solves_total", counter("circuit_sparse_solves_total"), sparse},
		{"circuit_sparse_fallbacks_total", counter("circuit_sparse_fallbacks_total"), 0},
		{"circuit_newton_iterations_total", counter("circuit_newton_iterations_total"), dense + sparse},
		{"circuit_op_total", counter("circuit_op_total"), ops.Load()},
		{"circuit_op_seconds count", hcount("circuit_op_seconds"), ops.Load()},
		{"variation_trials_total", counter("variation_trials_total"), int64(campaign.Completed())},
		{"variation_trial_seconds count", hcount("variation_trial_seconds"), trials},
	} {
		if c.got != c.want {
			t.Errorf("%s moved by %d, want %d", c.name, c.got, c.want)
		}
	}
	if campaign.Completed() != trials {
		t.Errorf("campaign completed %d of %d trials", campaign.Completed(), trials)
	}
	// Warm hits are a subset of operating points; at least the repeated
	// solves converge warm.
	if warm := counter("circuit_op_warm_total"); warm < opCalls || warm > ops.Load() {
		t.Errorf("circuit_op_warm_total moved by %d, want within [%d, %d]", warm, opCalls, ops.Load())
	}
}
