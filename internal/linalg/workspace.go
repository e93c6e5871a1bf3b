package linalg

// Workspace bundles the reusable buffers of one dense solve pipeline: a
// system matrix A, a right-hand side B, a solution scratch X and an LU
// factorisation. Once warmed up, repeated Factor/Solve cycles through a
// Workspace perform zero heap allocations — the property the circuit
// solver's steady-state Newton loop is built on. A Workspace is not safe
// for concurrent use; give each goroutine its own.
type Workspace struct {
	// N is the current system dimension.
	N int
	// A is the N×N system matrix the caller stamps into.
	A *Matrix
	// B is the right-hand side.
	B []float64
	// X receives the solution of Solve.
	X     []float64
	lu    LU
	meter LUMeter
}

// NewWorkspace returns a workspace sized for n×n systems.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.Reset(n)
	return w
}

// Reset sizes the workspace for n×n systems, reusing existing storage when
// it is large enough, and zeroes A and B. X and the factorisation are left
// unspecified until the next Factor/Solve.
func (w *Workspace) Reset(n int) {
	if n <= 0 {
		panic("linalg: Workspace dimension must be positive")
	}
	if w.A == nil || cap(w.A.Data) < n*n {
		w.A = &Matrix{Rows: n, Cols: n, Data: make([]float64, n*n)}
		w.B = make([]float64, n)
		w.X = make([]float64, n)
	} else {
		w.A.Rows, w.A.Cols = n, n
		w.A.Data = w.A.Data[:n*n]
		w.B = w.B[:n]
		w.X = w.X[:n]
	}
	w.N = n
	w.A.Zero()
	for i := range w.B {
		w.B[i] = 0
	}
}

// Factor computes the LU factorisation of the current contents of A,
// reusing the workspace's internal factor storage. A itself is preserved.
// With metrics enabled the call is staged in the workspace's meter; see
// FlushMetrics.
func (w *Workspace) Factor() error {
	w.meter.Begin()
	err := w.lu.FactorInto(w.A)
	w.meter.Factored()
	return err
}

// Solve writes the solution of A·x = B into X using the factorisation from
// the last Factor call. It must follow a successful Factor.
func (w *Workspace) Solve() {
	w.meter.Begin()
	w.lu.SolveInto(w.X, w.B)
	w.meter.Solved()
}

// FactorSolve factors A and solves A·X = B in one allocation-free call.
// Metered, the end of the factorisation is the start of the solve: three
// clock reads time both.
func (w *Workspace) FactorSolve() error {
	w.meter.Begin()
	err := w.lu.FactorInto(w.A)
	w.meter.Factored()
	if err != nil {
		return err
	}
	w.lu.SolveInto(w.X, w.B)
	w.meter.Solved()
	return nil
}

// FlushMetrics publishes the factor/solve counts and latencies staged
// since the last flush into the linalg_* instruments. Until its owner
// flushes, a workspace's calls are invisible to the registry.
func (w *Workspace) FlushMetrics() { w.meter.Flush() }
