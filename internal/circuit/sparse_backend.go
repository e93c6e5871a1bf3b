package circuit

import (
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// Auto-backend thresholds. MNA systems below sparseMinN unknowns factor
// faster dense (and, critically, every existing testbench sits far below
// it, so their results stay bit-identical); above it the sparse Markowitz
// LU wins as long as the stamped pattern is actually sparse. The density
// cap keeps pathological all-to-all netlists (where sparse bookkeeping is
// pure overhead) on the dense path. BENCH_6.json records the measured
// crossover these values encode.
const (
	sparseMinN       = 96
	sparseMaxDensity = 0.12
	// sparseResidualTol guards the sparse solution: ‖A·x − b‖∞ must stay
	// below tol·(1 + ‖A·x‖∞ + ‖b‖∞) or the solver falls back to dense for
	// the rest of the circuit's life. Threshold pivoting keeps well-posed
	// MNA residuals many orders below this.
	sparseResidualTol = 1e-7
)

// sparseFailHook, when non-nil, forces every sparse solve to be treated as
// a numeric failure — test instrumentation for the dense-fallback path.
var sparseFailHook func() bool

// chooseBackend decides dense vs. sparse for a freshly (re)built solve
// context and, when sparse, discovers the stamping pattern and allocates
// the sparse buffers. Called from (*Circuit).solver on every rebuild.
func (c *Circuit) chooseBackend(s *solver, n int) {
	s.useSparse = false
	s.sparseFailed = false
	s.spMat = nil
	if c.backend == BackendDense || n == 0 {
		return
	}
	if c.backend == BackendAuto && n < sparseMinN {
		return
	}
	pat := c.discoverPattern(n)
	if c.backend == BackendAuto && pat.Density() > sparseMaxDensity {
		return
	}
	nnz := pat.NNZ()
	s.spMat = pat
	s.spA0 = make([]float64, nnz)
	s.spIter = make([]float64, nnz)
	s.spB = make([]float64, n)
	s.spX = make([]float64, n)
	s.res = make([]float64, n)
	s.spLU = sparse.LU{}
	if s.spMeter == nil {
		s.spMeter = &linalg.LUMeter{Sparse: true}
	}
	s.useSparse = true
}

// discoverPattern stamps every element once into a sparse.Builder to learn
// the set of matrix positions any analysis can touch. Transient mode with a
// positive Gmin is a structural superset of every mode: the capacitor and
// MOSFET gate-cap companions cover the DC leak and gate-leak positions, the
// inductor companion adds its branch diagonal, and the homotopy leak pins
// the device diagonals. Values stamped here are discarded — only positions
// matter.
func (c *Circuit) discoverPattern(n int) *sparse.Matrix {
	b := sparse.NewBuilder(n)
	st := &stamp{
		A: b, Rhs: make([]float64, n), X: make([]float64, n),
		Mode: modeTran, Dt: 1, Intg: BackwardEuler, Gmin: 1e-3, SrcScale: 1,
	}
	for _, e := range c.elements {
		e.stampInto(st)
	}
	return b.Freeze()
}

// factorAndSolve factors the stamped iteration system and solves for the
// Newton update, returning the solution vector (owned by the workspace).
// On the sparse backend a failed factorisation or an out-of-tolerance
// residual trips a permanent (until rebuild) dense fallback: the iteration
// is restamped densely and solved there, so callers never observe the
// sparse path failing — only ErrSingular when the matrix is truly
// defective.
func (c *Circuit) factorAndSolve(slv *solver, st *stamp) ([]float64, error) {
	if slv.useSparse {
		forced := sparseFailHook != nil && sparseFailHook()
		lm := slv.spMeter
		lm.Begin()
		err := slv.spLU.FactorInto(slv.spMat)
		lm.Factored()
		if err == nil {
			slv.spLU.SolveInto(slv.spX, slv.spB)
			lm.Solved()
			slv.spMat.MulVecInto(slv.res, slv.spX)
			axInf := linalg.VecNormInf(slv.res)
			linalg.VecSubInto(slv.res, slv.res, slv.spB)
			scale := 1 + axInf + linalg.VecNormInf(slv.spB)
			c.meter.sparseSolves++
			if !forced && linalg.VecNormInf(slv.res) <= sparseResidualTol*scale {
				return slv.spX, nil
			}
		}
		c.fallbackToDense(slv, st)
	}
	ws := slv.ws
	if err := ws.FactorSolve(); err != nil {
		return nil, err
	}
	return ws.X, nil
}

// fallbackToDense abandons the sparse backend for this solve context,
// allocates the dense buffers it never needed until now, and restamps the
// current iteration into them so the caller can retry the factor/solve
// densely without disturbing the Newton state.
func (c *Circuit) fallbackToDense(slv *solver, st *stamp) {
	slv.useSparse = false
	slv.sparseFailed = true
	slv.allocDense(len(slv.rhs0))
	if m := c.meter.inst; m != nil {
		m.sparseFallbacks.Inc()
	}
	c.stampBaseline(slv, st)
	c.stampIteration(slv, st)
}
