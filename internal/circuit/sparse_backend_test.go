package circuit

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/device"
)

// ladderTestbench builds a resistively-coupled chain of diode-connected
// NMOS stages — an arbitrarily scalable netlist whose MNA matrix stays a
// few entries per row, the shape the sparse backend exists for.
func ladderTestbench(t testing.TB, stages int) *Circuit {
	t.Helper()
	tech := device.MustTech("180nm")
	c := New()
	c.AddVSource("VSUP", "rail", "0", DC(tech.VDD))
	prev := "rail"
	for i := 0; i < stages; i++ {
		n := fmt.Sprintf("n%03d", i)
		c.AddResistor(fmt.Sprintf("RF%03d", i), "rail", n, 30e3)
		c.AddMOSFET(fmt.Sprintf("M%03d", i), n, n, "0", "0",
			device.NewMosfet(tech.NMOSParams(2e-6, 4*tech.Lmin, 300)))
		c.AddResistor(fmt.Sprintf("RC%03d", i), prev, n, 50e3)
		prev = n
	}
	return c
}

func TestAutoBackendSelection(t *testing.T) {
	small := mirrorTestbench(t)
	if _, err := small.OperatingPoint(); err != nil {
		t.Fatal(err)
	}
	if small.UsingSparse() {
		t.Fatal("small testbench must stay on the dense path (bit-identical regression pinning)")
	}

	big := ladderTestbench(t, 160)
	if _, err := big.OperatingPoint(); err != nil {
		t.Fatal(err)
	}
	if !big.UsingSparse() {
		t.Fatalf("ladder with %d unknowns should auto-select the sparse backend", big.NumUnknowns())
	}
}

func TestSparseMatchesDenseOperatingPoint(t *testing.T) {
	stages := 120
	dense := ladderTestbench(t, stages)
	dense.SetMatrixBackend(BackendDense)
	sp := ladderTestbench(t, stages)
	sp.SetMatrixBackend(BackendSparse)

	solD, err := dense.OperatingPoint()
	if err != nil {
		t.Fatalf("dense: %v", err)
	}
	solS, err := sp.OperatingPoint()
	if err != nil {
		t.Fatalf("sparse: %v", err)
	}
	if !sp.UsingSparse() {
		t.Fatal("forced sparse backend was not used")
	}
	for i := range solD.X {
		if d := math.Abs(solD.X[i] - solS.X[i]); d > 1e-6 {
			t.Fatalf("unknown %d: dense %.12g vs sparse %.12g (diff %g)", i, solD.X[i], solS.X[i], d)
		}
	}
}

func TestSparseMatchesDenseTransient(t *testing.T) {
	stages := 100
	mk := func(b MatrixBackend) *Waveforms {
		c := ladderTestbench(t, stages)
		c.AddCapacitor("CL", "n050", "0", 10e-12)
		c.SetMatrixBackend(b)
		wf, err := c.Transient(TranSpec{Stop: 20e-9, Step: 1e-9, Record: []string{"n050"}})
		if err != nil {
			t.Fatalf("backend %v: %v", b, err)
		}
		return wf
	}
	wd := mk(BackendDense)
	ws := mk(BackendSparse)
	vd, vs := wd.Node("n050"), ws.Node("n050")
	if len(vd) != len(vs) {
		t.Fatalf("sample count mismatch %d vs %d", len(vd), len(vs))
	}
	for i := range vd {
		if d := math.Abs(vd[i] - vs[i]); d > 1e-6 {
			t.Fatalf("t[%d]: dense %.12g vs sparse %.12g (diff %g)", i, vd[i], vs[i], d)
		}
	}
}

// TestSparseFallbackToDense injects a sparse numeric failure and asserts
// the solver transparently restamps and finishes densely.
func TestSparseFallbackToDense(t *testing.T) {
	c := ladderTestbench(t, 120)
	c.SetMatrixBackend(BackendSparse)
	sparseFailHook = func() bool { return true }
	defer func() { sparseFailHook = nil }()

	sol, err := c.OperatingPoint()
	if err != nil {
		t.Fatalf("OperatingPoint with forced sparse failure: %v", err)
	}
	if c.UsingSparse() {
		t.Fatal("solver still reports sparse after a forced numeric failure")
	}
	// The dense result must be sane: every drain node sits between the
	// rails.
	tech := device.MustTech("180nm")
	for i := 0; i < 120; i++ {
		v := sol.Voltage(fmt.Sprintf("n%03d", i))
		if v <= 0 || v >= tech.VDD {
			t.Fatalf("n%03d = %g out of (0, %g)", i, v, tech.VDD)
		}
	}
}

// TestSparseNewtonZeroAllocs pins the sparse backend to the same
// steady-state allocation discipline as the dense workspace path.
func TestSparseNewtonZeroAllocs(t *testing.T) {
	c := ladderTestbench(t, 120)
	c.SetMatrixBackend(BackendSparse)
	sol, err := c.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if !c.UsingSparse() {
		t.Fatal("sparse backend not active")
	}
	x := make([]float64, c.NumUnknowns())
	cfg := defaultOPConfig()
	allocs := testing.AllocsPerRun(10, func() {
		copy(x, sol.X)
		if err := c.newtonDC(x, 0, 1, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state sparse newtonDC allocates %.1f times per solve, want 0", allocs)
	}
}

// TestSparseHoldsNoDenseBuffers pins the memory side of the backend
// choice: a circuit on the sparse LU never allocates the dense iteration
// matrix or baseline (two n×n buffers) until a numeric fallback trips,
// and the fallback then allocates them and still solves correctly.
func TestSparseHoldsNoDenseBuffers(t *testing.T) {
	const stages = 120
	ref := ladderTestbench(t, stages)
	ref.SetMatrixBackend(BackendDense)
	want, err := ref.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if ref.slv.ws == nil || ref.slv.a0 == nil {
		t.Fatal("dense-backend circuit has no dense buffers")
	}

	c := ladderTestbench(t, stages)
	for i := 0; i < 3; i++ {
		if err := c.SolveOP(); err != nil {
			t.Fatal(err)
		}
	}
	if !c.UsingSparse() {
		t.Fatal("ladder did not auto-select the sparse backend")
	}
	if c.slv.ws != nil || c.slv.a0 != nil {
		t.Fatal("sparse-backend circuit holds dense n×n buffers before any fallback")
	}

	sparseFailHook = func() bool { return true }
	defer func() { sparseFailHook = nil }()
	c.ResetSolverState()
	sol, err := c.OperatingPoint()
	if err != nil {
		t.Fatalf("OperatingPoint with forced sparse failure: %v", err)
	}
	if c.UsingSparse() {
		t.Fatal("solver still reports sparse after a forced numeric failure")
	}
	n := c.NumUnknowns()
	if ws := c.slv.ws; ws == nil || ws.A.Rows != n || c.slv.a0 == nil || c.slv.a0.Rows != n {
		t.Fatal("fallback did not allocate the dense buffers at the system size")
	}
	for i := range want.X {
		if d := math.Abs(sol.X[i] - want.X[i]); d > 1e-6 {
			t.Fatalf("unknown %d after fallback: %.12g, dense reference %.12g", i, sol.X[i], want.X[i])
		}
	}
}
