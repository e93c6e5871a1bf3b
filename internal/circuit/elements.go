package circuit

import (
	"repro/internal/device"
	"repro/internal/linalg"
)

// Integrator selects the transient integration method.
type Integrator int

const (
	// BackwardEuler is L-stable and heavily damped; robust default.
	BackwardEuler Integrator = iota
	// Trapezoidal is A-stable and second-order accurate; preferred when
	// waveform fidelity matters (e.g. EMI rectification).
	Trapezoidal
)

// String names the integrator.
func (i Integrator) String() string {
	if i == Trapezoidal {
		return "trapezoidal"
	}
	return "backward-euler"
}

// analysisMode distinguishes DC from transient stamping.
type analysisMode int

const (
	modeDC analysisMode = iota
	modeTran
)

// stampTarget abstracts the matrix the elements stamp into: the dense
// linalg.Matrix, the sparse backend's frozen-pattern matrix, or the
// pattern-discovery Builder. Elements only accumulate (Add) and the solver
// only resets (Zero), so this minimal pair is the whole contract.
type stampTarget interface {
	Add(i, j int, v float64)
	Zero()
}

// stamp carries the in-progress MNA system during one Newton iteration.
type stamp struct {
	A    stampTarget
	Rhs  []float64
	X    []float64 // present iterate
	Mode analysisMode
	Time float64
	Dt   float64
	Intg Integrator
	// Gmin is a leak conductance from every non-ground MOSFET/diode node
	// to ground, used for convergence homotopy.
	Gmin float64
	// SrcScale scales all independent sources (source-stepping homotopy).
	SrcScale float64
}

// zeroSystem clears the stamped system (matrix and right-hand side) in
// place — the single reset point shared by the DC and transient solvers.
func (s *stamp) zeroSystem() {
	s.A.Zero()
	for i := range s.Rhs {
		s.Rhs[i] = 0
	}
}

// v returns the iterate voltage at node index i (0 for ground).
func (s *stamp) v(i int) float64 {
	if i < 0 {
		return 0
	}
	return s.X[i]
}

// addA accumulates into the system matrix, skipping ground rows/columns.
func (s *stamp) addA(i, j int, val float64) {
	if i < 0 || j < 0 {
		return
	}
	s.A.Add(i, j, val)
}

// addRhs accumulates into the right-hand side, skipping ground.
func (s *stamp) addRhs(i int, val float64) {
	if i < 0 {
		return
	}
	s.Rhs[i] += val
}

// element is anything that can stamp itself into the MNA system.
type element interface {
	name() string
	stampInto(s *stamp)
}

// branchElement is an element that owns an extra MNA unknown (its branch
// current).
type branchElement interface {
	element
	assignBranch(c *Circuit)
	branchIndex() int
}

// stateful elements carry integrator state across transient steps.
type stateful interface {
	element
	// initState captures the element state from a converged DC solution x.
	initState(x []float64)
	// accept commits the state after a converged transient step.
	accept(s *stamp)
}

// acStamper elements contribute to the small-signal complex system,
// linearised at the solution x of the last DC solve: a MOSFET evaluates
// its model at that bias when stamped (the same operating point its OP
// evaluates on demand), other elements read the solution voltages.
type acStamper interface {
	stampAC(m *linalg.CMatrix, rhs []complex128, omega float64, x []float64)
}

// ---------------------------------------------------------------- resistor

type resistor struct {
	nm   string
	a, b int
	g    float64
}

func (r *resistor) name() string { return r.nm }

func (r *resistor) stampInto(s *stamp) {
	s.addA(r.a, r.a, r.g)
	s.addA(r.b, r.b, r.g)
	s.addA(r.a, r.b, -r.g)
	s.addA(r.b, r.a, -r.g)
}

func (r *resistor) stampAC(m *linalg.CMatrix, _ []complex128, _ float64, _ []float64) {
	cstampG(m, r.a, r.b, complex(r.g, 0))
}

// cstampG stamps a two-terminal admittance into a complex matrix.
func cstampG(m *linalg.CMatrix, a, b int, y complex128) {
	if a >= 0 {
		m.Add(a, a, y)
	}
	if b >= 0 {
		m.Add(b, b, y)
	}
	if a >= 0 && b >= 0 {
		m.Add(a, b, -y)
		m.Add(b, a, -y)
	}
}

// --------------------------------------------------------------- capacitor

type capacitor struct {
	nm    string
	a, b  int
	c     float64
	vPrev float64
	iPrev float64
}

func (c *capacitor) name() string { return c.nm }

func (c *capacitor) stampInto(s *stamp) {
	if s.Mode == modeDC {
		// Open circuit at DC; a tiny conductance keeps floating nodes
		// attached to the system.
		const gleak = 1e-12
		s.addA(c.a, c.a, gleak)
		s.addA(c.b, c.b, gleak)
		s.addA(c.a, c.b, -gleak)
		s.addA(c.b, c.a, -gleak)
		return
	}
	var geq, ieq float64
	switch s.Intg {
	case Trapezoidal:
		geq = 2 * c.c / s.Dt
		ieq = geq*c.vPrev + c.iPrev
	default: // Backward Euler
		geq = c.c / s.Dt
		ieq = geq * c.vPrev
	}
	s.addA(c.a, c.a, geq)
	s.addA(c.b, c.b, geq)
	s.addA(c.a, c.b, -geq)
	s.addA(c.b, c.a, -geq)
	s.addRhs(c.a, ieq)
	s.addRhs(c.b, -ieq)
}

func (c *capacitor) initState(x []float64) {
	c.vPrev = nodeV(x, c.a) - nodeV(x, c.b)
	c.iPrev = 0
}

func (c *capacitor) accept(s *stamp) {
	v := s.v(c.a) - s.v(c.b)
	switch s.Intg {
	case Trapezoidal:
		geq := 2 * c.c / s.Dt
		c.iPrev = geq*(v-c.vPrev) - c.iPrev
	default:
		c.iPrev = c.c / s.Dt * (v - c.vPrev)
	}
	c.vPrev = v
}

func (c *capacitor) stampAC(m *linalg.CMatrix, _ []complex128, omega float64, _ []float64) {
	cstampG(m, c.a, c.b, complex(0, omega*c.c))
}

func nodeV(x []float64, i int) float64 {
	if i < 0 {
		return 0
	}
	return x[i]
}

// ---------------------------------------------------------------- inductor

type inductor struct {
	nm     string
	a, b   int
	l      float64
	branch int
	iPrev  float64
	vPrev  float64
}

func (l *inductor) name() string     { return l.nm }
func (l *inductor) branchIndex() int { return l.branch }
func (l *inductor) assignBranch(c *Circuit) {
	l.branch = c.newBranch()
}

func (l *inductor) stampInto(s *stamp) {
	br := l.branch
	// KCL: branch current enters a, leaves b.
	s.addA(l.a, br, 1)
	s.addA(l.b, br, -1)
	// Branch equation row.
	s.addA(br, l.a, 1)
	s.addA(br, l.b, -1)
	if s.Mode == modeDC {
		// v = 0 (short): row already reads va - vb = 0.
		return
	}
	switch s.Intg {
	case Trapezoidal:
		// v + vPrev = (2L/dt)(i - iPrev)  =>  va-vb - (2L/dt) i = -vPrev - (2L/dt) iPrev
		k := 2 * l.l / s.Dt
		s.addA(br, br, -k)
		s.addRhs(br, -l.vPrev-k*l.iPrev)
	default:
		// v = (L/dt)(i - iPrev)
		k := l.l / s.Dt
		s.addA(br, br, -k)
		s.addRhs(br, -k*l.iPrev)
	}
}

func (l *inductor) initState(x []float64) {
	l.iPrev = x[l.branch]
	l.vPrev = 0
}

func (l *inductor) accept(s *stamp) {
	l.iPrev = s.X[l.branch]
	l.vPrev = s.v(l.a) - s.v(l.b)
}

func (l *inductor) stampAC(m *linalg.CMatrix, _ []complex128, omega float64, _ []float64) {
	br := l.branch
	m.Add(br, br, complex(0, -omega*l.l))
	if l.a >= 0 {
		m.Add(l.a, br, 1)
		m.Add(br, l.a, 1)
	}
	if l.b >= 0 {
		m.Add(l.b, br, -1)
		m.Add(br, l.b, -1)
	}
}

// ------------------------------------------------------------------ VSource

// VSource is an independent voltage source. ACMag sets its small-signal
// magnitude for AC analysis (0 for quiet sources).
type VSource struct {
	nm     string
	p, n   int
	branch int
	// W is the large-signal waveform; replaceable between runs (the EMC
	// harness swaps a DC supply for DC+sine).
	W Waveform
	// ACMag is the small-signal stimulus magnitude in AC analysis.
	ACMag float64
}

func (v *VSource) name() string     { return v.nm }
func (v *VSource) branchIndex() int { return v.branch }
func (v *VSource) assignBranch(c *Circuit) {
	v.branch = c.newBranch()
}

func (v *VSource) stampInto(s *stamp) {
	br := v.branch
	s.addA(v.p, br, 1)
	s.addA(v.n, br, -1)
	s.addA(br, v.p, 1)
	s.addA(br, v.n, -1)
	t := s.Time
	if s.Mode == modeDC {
		t = 0
	}
	s.addRhs(br, v.W.At(t)*s.SrcScale)
}

func (v *VSource) stampAC(m *linalg.CMatrix, rhs []complex128, _ float64, _ []float64) {
	br := v.branch
	if v.p >= 0 {
		m.Add(v.p, br, 1)
		m.Add(br, v.p, 1)
	}
	if v.n >= 0 {
		m.Add(v.n, br, -1)
		m.Add(br, v.n, -1)
	}
	rhs[br] += complex(v.ACMag, 0)
}

// ------------------------------------------------------------------ ISource

// ISource is an independent current source; current flows from p through
// the source to n (i.e. it injects into node n and draws from node p when
// the value is positive... conventionally: positive value pushes current
// out of n into p externally). We adopt the SPICE convention: a positive
// source value forces current from p to n through the source, which
// *extracts* from node p and *injects* into node n.
type ISource struct {
	nm   string
	p, n int
	W    Waveform
	// ACMag is the small-signal stimulus magnitude in AC analysis.
	ACMag float64
}

func (i *ISource) name() string { return i.nm }

func (i *ISource) stampInto(s *stamp) {
	t := s.Time
	if s.Mode == modeDC {
		t = 0
	}
	val := i.W.At(t) * s.SrcScale
	s.addRhs(i.p, -val)
	s.addRhs(i.n, val)
}

func (i *ISource) stampAC(_ *linalg.CMatrix, rhs []complex128, _ float64, _ []float64) {
	if i.p >= 0 {
		rhs[i.p] -= complex(i.ACMag, 0)
	}
	if i.n >= 0 {
		rhs[i.n] += complex(i.ACMag, 0)
	}
}

// -------------------------------------------------------------------- VCCS

type vccs struct {
	nm           string
	p, n, cp, cn int
	g            float64
}

func (v *vccs) name() string { return v.nm }

func (v *vccs) stampInto(s *stamp) {
	s.addA(v.p, v.cp, v.g)
	s.addA(v.p, v.cn, -v.g)
	s.addA(v.n, v.cp, -v.g)
	s.addA(v.n, v.cn, v.g)
}

func (v *vccs) stampAC(m *linalg.CMatrix, _ []complex128, _ float64, _ []float64) {
	g := complex(v.g, 0)
	if v.p >= 0 && v.cp >= 0 {
		m.Add(v.p, v.cp, g)
	}
	if v.p >= 0 && v.cn >= 0 {
		m.Add(v.p, v.cn, -g)
	}
	if v.n >= 0 && v.cp >= 0 {
		m.Add(v.n, v.cp, -g)
	}
	if v.n >= 0 && v.cn >= 0 {
		m.Add(v.n, v.cn, g)
	}
}

// -------------------------------------------------------------------- VCVS

type vcvs struct {
	nm           string
	p, n, cp, cn int
	gain         float64
	branch       int
}

func (e *vcvs) name() string     { return e.nm }
func (e *vcvs) branchIndex() int { return e.branch }
func (e *vcvs) assignBranch(c *Circuit) {
	e.branch = c.newBranch()
}

func (e *vcvs) stampInto(s *stamp) {
	br := e.branch
	// KCL contribution of the branch current.
	s.addA(e.p, br, 1)
	s.addA(e.n, br, -1)
	// Branch equation: V(p,n) − gain·V(cp,cn) = 0.
	s.addA(br, e.p, 1)
	s.addA(br, e.n, -1)
	s.addA(br, e.cp, -e.gain)
	s.addA(br, e.cn, e.gain)
}

func (e *vcvs) stampAC(m *linalg.CMatrix, _ []complex128, _ float64, _ []float64) {
	br := e.branch
	add := func(i, j int, v float64) {
		if i >= 0 && j >= 0 {
			m.Add(i, j, complex(v, 0))
		}
	}
	add(e.p, br, 1)
	add(e.n, br, -1)
	add(br, e.p, 1)
	add(br, e.n, -1)
	add(br, e.cp, -e.gain)
	add(br, e.cn, e.gain)
}

// ------------------------------------------------------------------- diode

type diodeElem struct {
	nm   string
	a, k int
	dev  *device.Diode
}

func (d *diodeElem) name() string { return d.nm }

// nonlinear marks the diode's stamps as iterate-dependent; see solver.go.
func (d *diodeElem) nonlinear() {}

func (d *diodeElem) stampInto(s *stamp) {
	v := s.v(d.a) - s.v(d.k)
	i, g := d.dev.Eval(v)
	g += s.Gmin
	ieq := i - g*v
	s.addA(d.a, d.a, g)
	s.addA(d.k, d.k, g)
	s.addA(d.a, d.k, -g)
	s.addA(d.k, d.a, -g)
	s.addRhs(d.a, -ieq)
	s.addRhs(d.k, ieq)
}

func (d *diodeElem) stampAC(m *linalg.CMatrix, _ []complex128, _ float64, x []float64) {
	v := nodeV(x, d.a) - nodeV(x, d.k)
	_, g := d.dev.Eval(v)
	cstampG(m, d.a, d.k, complex(g, 0))
}
