package circuit

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// nonlinearElement marks elements whose stamps depend on the present
// Newton iterate (MOSFETs, diodes). Every other element stamps values that
// are constant within one Newton solve, so the solver stamps those once
// into a baseline system and replays the baseline with a copy on each
// iteration instead of re-stamping the whole netlist.
type nonlinearElement interface {
	element
	nonlinear()
}

// solver is the per-Circuit reusable solve context: the Newton iteration
// system, the linear-stamp baseline, scratch vectors and the warm-start
// state. It is allocated lazily on the first solve and reused by every
// subsequent operating-point, sweep and transient call, so steady-state
// Newton iterations perform zero heap allocations. The two dense n×n
// matrices (ws.A and a0) exist only while the dense backend runs: a
// circuit on the sparse backend allocates them when its numeric fallback
// first trips, and never otherwise. Like the Circuit it belongs to, it is
// not safe for concurrent use; independent Circuits own independent
// solvers.
type solver struct {
	ws   *linalg.Workspace // dense iteration system: matrix A, rhs B, update X
	a0   *linalg.Matrix    // dense baseline matrix holding the linear stamps
	rhs0 []float64         // baseline right-hand side
	x    []float64         // operating-point iterate scratch
	st   stamp             // reusable stamp for newtonDC

	// lastX holds the most recent converged DC solution; OperatingPoint
	// tries it before falling back to the cold homotopy ladder, and
	// Circuit.Voltage reads it in place.
	lastX    []float64
	haveLast bool

	// linear and nonlinear split c.elements by stamp dependence on the
	// iterate; nElems is the element count the split was built for.
	linear    []element
	nonlinear []element
	nElems    int

	// Sparse backend state; see sparse_backend.go. spMat carries the frozen
	// stamping pattern with Vals re-pointed at spA0 (linear baseline) or
	// spIter (per-iteration copy), mirroring the dense a0/ws.A pair.
	useSparse    bool
	sparseFailed bool // numeric fallback tripped: stay dense until rebuilt
	spMat        *sparse.Matrix
	spA0         []float64
	spIter       []float64
	spB, spX     []float64 // iteration rhs and Newton update
	spLU         sparse.LU
	spMeter      *linalg.LUMeter // stages the sparse LU metrics
	res          []float64       // residual-guard scratch
}

// solver returns the circuit's solve context, (re)building buffers and the
// linear/nonlinear element split when the system size or the element list
// changed since the last solve. Callers must run c.prepare() first so
// branch indices — and therefore NumUnknowns — are final.
func (c *Circuit) solver() *solver {
	n := c.NumUnknowns()
	s := c.slv
	if s == nil {
		s = &solver{}
		c.slv = s
	}
	rebuilt := false
	if s.rhs0 == nil || len(s.rhs0) != n {
		s.ws, s.a0 = nil, nil
		s.rhs0 = make([]float64, n)
		s.x = make([]float64, n)
		s.lastX = make([]float64, n)
		s.haveLast = false
		rebuilt = true
	}
	if s.nElems != len(c.elements) {
		s.linear = s.linear[:0]
		s.nonlinear = s.nonlinear[:0]
		for _, e := range c.elements {
			if ne, ok := e.(nonlinearElement); ok {
				s.nonlinear = append(s.nonlinear, ne)
			} else {
				s.linear = append(s.linear, e)
			}
		}
		s.nElems = len(c.elements)
		s.haveLast = false
		rebuilt = true
	}
	if rebuilt {
		c.chooseBackend(s, n)
		if !s.useSparse {
			s.allocDense(n)
		}
	}
	return s
}

// allocDense allocates the dense iteration workspace and baseline matrix
// unless they already exist at this size.
func (s *solver) allocDense(n int) {
	if s.ws == nil {
		s.ws = linalg.NewWorkspace(n)
		s.a0 = linalg.NewMatrix(n, n)
	}
}

// noteConverged records x as the latest converged DC solution for warm
// starts.
func (s *solver) noteConverged(x []float64) {
	copy(s.lastX, x)
	s.haveLast = true
}

// stampBaseline points st at the baseline buffers and stamps every linear
// element for the solve configuration in st (mode, time, step, integrator,
// source scale). Within one Newton solve none of those change, so the
// baseline is computed exactly once per solve.
func (c *Circuit) stampBaseline(slv *solver, st *stamp) {
	if slv.useSparse {
		slv.spMat.Vals = slv.spA0
		st.A, st.Rhs = slv.spMat, slv.rhs0
	} else {
		st.A, st.Rhs = slv.a0, slv.rhs0
	}
	st.zeroSystem()
	for _, e := range slv.linear {
		e.stampInto(st)
	}
}

// stampIteration replays the linear baseline into the iteration buffers by
// copy and stamps the nonlinear elements at the present iterate st.X.
func (c *Circuit) stampIteration(slv *solver, st *stamp) {
	if slv.useSparse {
		copy(slv.spIter, slv.spA0)
		copy(slv.spB, slv.rhs0)
		slv.spMat.Vals = slv.spIter
		st.A, st.Rhs = slv.spMat, slv.spB
	} else {
		ws := slv.ws
		copy(ws.A.Data, slv.a0.Data)
		copy(ws.B, slv.rhs0)
		st.A, st.Rhs = ws.A, ws.B
	}
	for _, e := range slv.nonlinear {
		e.stampInto(st)
	}
}

// zeroVec clears a vector in place.
func zeroVec(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// SetInitialGuess seeds the warm-start state with a previous solution of a
// same-topology circuit, so the next OperatingPoint tries Newton from x
// before running the cold homotopy ladder. Monte-Carlo harnesses use it to
// start every mismatch trial from the nominal solution. The guess is
// copied; a length mismatch with the MNA system is an error.
func (c *Circuit) SetInitialGuess(x []float64) error {
	c.prepare()
	n := c.NumUnknowns()
	if len(x) != n {
		return fmt.Errorf("circuit: initial guess has %d entries, system has %d unknowns", len(x), n)
	}
	slv := c.solver()
	slv.noteConverged(x)
	return nil
}

// ResetSolverState drops the cached warm-start solution, forcing the next
// OperatingPoint to run the cold ladder from zero — useful when a caller
// deliberately wants the zero-bias equilibrium of a multi-stable circuit,
// and used by batched Monte-Carlo harnesses to return a reused circuit to
// the state a fresh Build would produce. A sticky sparse→dense numeric
// fallback is also cleared (by dropping the solver for rebuild), so a
// reused die retries the sparse backend exactly like a fresh one.
func (c *Circuit) ResetSolverState() {
	if c.slv != nil {
		c.slv.haveLast = false
		if c.slv.sparseFailed {
			c.dropSolver()
		}
	}
}

// dropSolver discards the solve context for a rebuild at the next solve,
// publishing its staged metrics first.
func (c *Circuit) dropSolver() {
	if c.slv != nil {
		c.slv.flushMetrics()
	}
	c.slv = nil
}
