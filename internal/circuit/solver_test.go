package circuit

import (
	"math"
	"testing"

	"repro/internal/device"
)

// mirrorTestbench builds a resistor-fed NMOS current mirror — the Fig. 3
// topology — exercising both linear (R, C, V) and nonlinear (MOSFET)
// stamps.
func mirrorTestbench(t testing.TB) *Circuit {
	t.Helper()
	tech := device.MustTech("180nm")
	c := New()
	c.AddVSource("VSUP", "rail", "0", DC(tech.VDD))
	c.AddResistor("RREF", "rail", "gate", 30e3)
	c.AddMOSFET("M1", "gate", "gate", "0", "0",
		device.NewMosfet(tech.NMOSParams(2e-6, 4*tech.Lmin, 300)))
	c.AddMOSFET("M2", "out", "gate", "0", "0",
		device.NewMosfet(tech.NMOSParams(2e-6, 4*tech.Lmin, 300)))
	c.AddResistor("RLOAD", "rail", "out", 10e3)
	c.AddCapacitor("CFILT", "gate", "0", 20e-12)
	return c
}

// TestNewtonDCZeroAllocs asserts the tentpole property: after the first
// solve has warmed the workspace, a steady-state Newton solve performs
// zero heap allocations.
func TestNewtonDCZeroAllocs(t *testing.T) {
	c := mirrorTestbench(t)
	sol, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, c.NumUnknowns())
	cfg := defaultOPConfig()
	allocs := testing.AllocsPerRun(20, func() {
		copy(x, sol.X)
		if err := c.newtonDC(x, 0, 1, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state newtonDC allocates %.1f times per solve, want 0", allocs)
	}
}

// TestNewtonTranZeroAllocs asserts the same property for the transient
// Newton loop.
func TestNewtonTranZeroAllocs(t *testing.T) {
	c := mirrorTestbench(t)
	// One short transient initialises every companion-model state.
	if _, err := c.Transient(TranSpec{Stop: 5e-9, Step: 1e-9, Record: []string{"out"}}); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, c.NumUnknowns())
	sol, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	st := &stamp{X: x, Mode: modeTran, Dt: 1e-9, Time: 6e-9, Intg: BackwardEuler, SrcScale: 1}
	cfg := defaultOPConfig()
	cfg.maxIter = 100
	allocs := testing.AllocsPerRun(20, func() {
		copy(x, sol.X)
		if err := c.newtonTran(st, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state newtonTran allocates %.1f times per step, want 0", allocs)
	}
}

// TestWarmStartMatchesColdSolution verifies warm-started operating points
// agree with cold ones within the Newton tolerance after the circuit is
// perturbed between solves.
func TestWarmStartMatchesColdSolution(t *testing.T) {
	c := mirrorTestbench(t)
	if _, err := c.OperatingPoint(); err != nil {
		t.Fatal(err)
	}
	// Perturb the supply and re-solve: stage 0 (warm) should engage.
	v, err := c.VSourceByName("VSUP")
	if err != nil {
		t.Fatal(err)
	}
	v.W = DC(1.7)
	warm, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	c.ResetSolverState()
	cold, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm.X {
		if d := math.Abs(warm.X[i] - cold.X[i]); d > 1e-7 {
			t.Fatalf("warm/cold solutions differ at unknown %d by %g", i, d)
		}
	}
}

// TestSetInitialGuess covers the seeding API: a good guess is accepted, a
// mis-sized one is rejected, and seeding never changes the solution.
func TestSetInitialGuess(t *testing.T) {
	ref := mirrorTestbench(t)
	sol, err := ref.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}

	c := mirrorTestbench(t)
	if err := c.SetInitialGuess(sol.X); err != nil {
		t.Fatal(err)
	}
	seeded, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	for i := range sol.X {
		if d := math.Abs(seeded.X[i] - sol.X[i]); d > 1e-7 {
			t.Fatalf("seeded solution differs at unknown %d by %g", i, d)
		}
	}

	if err := c.SetInitialGuess([]float64{1, 2}); err == nil {
		t.Fatal("mis-sized initial guess accepted")
	}
}

// TestSolverRebuildsAfterTopologyChange guards the workspace invalidation:
// elements added after a solve must be stamped by the next one.
func TestSolverRebuildsAfterTopologyChange(t *testing.T) {
	c := New()
	c.AddVSource("V1", "in", "0", DC(2))
	c.AddResistor("R1", "in", "out", 1e3)
	c.AddResistor("R2", "out", "0", 1e3)
	sol, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if v := sol.Voltage("out"); math.Abs(v-1) > 1e-9 {
		t.Fatalf("divider gives %g, want 1", v)
	}
	// Halve the lower leg by adding a parallel resistor: 2 V · (500/1500).
	c.AddResistor("R3", "out", "0", 1e3)
	sol, err = c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if v := sol.Voltage("out"); math.Abs(v-2.0/3.0) > 1e-9 {
		t.Fatalf("after topology change divider gives %g, want %g", v, 2.0/3.0)
	}
	// Growing the system (new node + branch) must also be safe.
	c.AddVSource("V2", "aux", "0", DC(5))
	sol, err = c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if v := sol.Voltage("aux"); math.Abs(v-5) > 1e-9 {
		t.Fatalf("added source node at %g, want 5", v)
	}
}

// TestWarmStartFallsBackToColdLadder forces the warm path to fail by
// poisoning the cached solution with values far outside the basin of
// attraction and checks the ladder still recovers the right answer.
func TestWarmStartFallsBackToColdLadder(t *testing.T) {
	c := mirrorTestbench(t)
	sol, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	bogus := make([]float64, len(sol.X))
	for i := range bogus {
		bogus[i] = 1e6 // drives the exponential models far out of range
	}
	if err := c.SetInitialGuess(bogus); err != nil {
		t.Fatal(err)
	}
	again, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	for i := range sol.X {
		if d := math.Abs(again.X[i] - sol.X[i]); d > 1e-7 {
			t.Fatalf("fallback solution differs at unknown %d by %g", i, d)
		}
	}
}

// TestSolveOPVoltageMatchesOperatingPoint pins the in-place read to the
// copying one: on twin circuits, Circuit.Voltage after SolveOP returns bit
// for bit what OperatingPoint's Solution reads, cold and warm, on both
// backends, and a warm SolveOP plus Voltage allocates nothing. Reading with
// no converged solution is a programming error and panics.
func TestSolveOPVoltageMatchesOperatingPoint(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *Circuit
		node  string
	}{
		{"dense", func() *Circuit { return mirrorTestbench(t) }, "out"},
		{"sparse", func() *Circuit { return ladderTestbench(t, 120) }, "n119"},
	} {
		copying, inPlace := tc.build(), tc.build()
		for pass := 0; pass < 2; pass++ { // cold, then warm
			sol, err := copying.OperatingPoint()
			if err != nil {
				t.Fatal(err)
			}
			if err := inPlace.SolveOP(); err != nil {
				t.Fatal(err)
			}
			for _, node := range []string{tc.node, "0"} {
				if got, want := inPlace.Voltage(node), sol.Voltage(node); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s pass %d: Voltage(%q) = %v, Solution reads %v", tc.name, pass, node, got, want)
				}
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := inPlace.SolveOP(); err != nil {
				t.Fatal(err)
			}
			_ = inPlace.Voltage(tc.node)
		})
		if allocs != 0 {
			t.Errorf("%s: warm SolveOP+Voltage allocates %.1f times, want 0", tc.name, allocs)
		}
		inPlace.ResetSolverState()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Voltage after ResetSolverState did not panic", tc.name)
				}
			}()
			inPlace.Voltage(tc.node)
		}()
	}
}
