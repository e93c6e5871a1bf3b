package circuit

import (
	"repro/internal/device"
	"repro/internal/linalg"
)

// MOSFET is the circuit element wrapping a device.Mosfet. The aging and
// variability layers mutate Dev.Mismatch / Dev.Damage between simulations;
// the element reads them on every stamp, so no re-wiring is needed.
type MOSFET struct {
	nm         string
	d, g, s, b int
	// Dev is the compact-model instance. Callers may replace its Mismatch
	// and Damage fields between analyses.
	Dev *device.Mosfet

	// Gate-capacitance companion states for transient analysis.
	cgsState capState
	cgdState capState

	// The bias (vgs, vds, vbs) of the most recent converged solution, for
	// OP and stress extraction.
	lastVgs float64
	lastVds float64
	lastVbs float64
}

type capState struct {
	vPrev float64
	iPrev float64
}

// Name returns the element name.
func (m *MOSFET) Name() string { return m.nm }

func (m *MOSFET) name() string { return m.nm }

// nonlinear marks the MOSFET's stamps as iterate-dependent; see solver.go.
func (m *MOSFET) nonlinear() {}

// OP returns the device's operating point at the last converged
// solution: each call evaluates Dev's model, with its present mismatch and
// damage, at the bias that solve recorded (BiasVoltages). Solves do not
// evaluate it themselves, since most never read it.
func (m *MOSFET) OP() device.OperatingPoint {
	return m.Dev.Eval(m.lastVgs, m.lastVds, m.lastVbs)
}

// BiasVoltages returns (vgs, vds, vbs) captured at the last converged
// solution; the aging stress extractor feeds these to the degradation
// models.
func (m *MOSFET) BiasVoltages() (vgs, vds, vbs float64) {
	return m.lastVgs, m.lastVds, m.lastVbs
}

func (m *MOSFET) stampInto(s *stamp) {
	vd, vg, vs, vb := s.v(m.d), s.v(m.g), s.v(m.s), s.v(m.b)
	vgs := vg - vs
	vds := vd - vs
	vbs := vb - vs
	op := m.Dev.Eval(vgs, vds, vbs)

	// Linearised drain current: ID ≈ ID0 + gm·Δvgs + gds·Δvds + gmb·Δvbs.
	// The equivalent current source is the residual at the iterate.
	ieq := op.ID - op.Gm*vgs - op.Gds*vds - op.Gmb*vbs

	// gm stamps (drain row positive, source row negative).
	s.addA(m.d, m.g, op.Gm)
	s.addA(m.d, m.s, -op.Gm)
	s.addA(m.s, m.g, -op.Gm)
	s.addA(m.s, m.s, op.Gm)
	// gds stamps.
	s.addA(m.d, m.d, op.Gds)
	s.addA(m.d, m.s, -op.Gds)
	s.addA(m.s, m.d, -op.Gds)
	s.addA(m.s, m.s, op.Gds)
	// gmb stamps.
	s.addA(m.d, m.b, op.Gmb)
	s.addA(m.d, m.s, -op.Gmb)
	s.addA(m.s, m.b, -op.Gmb)
	s.addA(m.s, m.s, op.Gmb)
	// Residual current source from drain to source.
	s.addRhs(m.d, -ieq)
	s.addRhs(m.s, ieq)

	// Convergence gmin from drain and source to ground.
	if s.Gmin > 0 {
		s.addA(m.d, m.d, s.Gmin)
		s.addA(m.s, m.s, s.Gmin)
	}

	// Post-breakdown gate leakage: a TDDB path splits between gate-source
	// and gate-drain.
	if gl := m.Dev.Damage.GateLeak; gl > 0 {
		half := gl / 2
		stampConductance(s, m.g, m.s, half)
		stampConductance(s, m.g, m.d, half)
	}

	// Gate capacitances in transient mode.
	if s.Mode == modeTran {
		cgs, cgd := m.Dev.GateCapacitance()
		stampCapCompanion(s, m.g, m.s, cgs, &m.cgsState)
		stampCapCompanion(s, m.g, m.d, cgd, &m.cgdState)
	}
}

func stampConductance(s *stamp, a, b int, g float64) {
	s.addA(a, a, g)
	s.addA(b, b, g)
	s.addA(a, b, -g)
	s.addA(b, a, -g)
}

func stampCapCompanion(s *stamp, a, b int, c float64, st *capState) {
	var geq, ieq float64
	switch s.Intg {
	case Trapezoidal:
		geq = 2 * c / s.Dt
		ieq = geq*st.vPrev + st.iPrev
	default:
		geq = c / s.Dt
		ieq = geq * st.vPrev
	}
	s.addA(a, a, geq)
	s.addA(b, b, geq)
	s.addA(a, b, -geq)
	s.addA(b, a, -geq)
	s.addRhs(a, ieq)
	s.addRhs(b, -ieq)
}

func acceptCapCompanion(s *stamp, a, b int, c float64, st *capState) {
	v := s.v(a) - s.v(b)
	switch s.Intg {
	case Trapezoidal:
		geq := 2 * c / s.Dt
		st.iPrev = geq*(v-st.vPrev) - st.iPrev
	default:
		st.iPrev = c / s.Dt * (v - st.vPrev)
	}
	st.vPrev = v
}

func (m *MOSFET) initState(x []float64) {
	vg, vs, vd := nodeV(x, m.g), nodeV(x, m.s), nodeV(x, m.d)
	m.cgsState = capState{vPrev: vg - vs}
	m.cgdState = capState{vPrev: vg - vd}
}

func (m *MOSFET) accept(s *stamp) {
	cgs, cgd := m.Dev.GateCapacitance()
	acceptCapCompanion(s, m.g, m.s, cgs, &m.cgsState)
	acceptCapCompanion(s, m.g, m.d, cgd, &m.cgdState)
	m.capture(s.X)
}

// capture records the bias point at a converged solution x. The model is
// not evaluated here: OP evaluates it on demand at this bias.
func (m *MOSFET) capture(x []float64) {
	vd, vg, vs, vb := nodeV(x, m.d), nodeV(x, m.g), nodeV(x, m.s), nodeV(x, m.b)
	m.lastVgs = vg - vs
	m.lastVds = vd - vs
	m.lastVbs = vb - vs
}

func (m *MOSFET) stampAC(mat *linalg.CMatrix, _ []complex128, omega float64, x []float64) {
	vd, vg, vs, vb := nodeV(x, m.d), nodeV(x, m.g), nodeV(x, m.s), nodeV(x, m.b)
	op := m.Dev.Eval(vg-vs, vd-vs, vb-vs)

	addc := func(i, j int, v float64) {
		if i >= 0 && j >= 0 {
			mat.Add(i, j, complex(v, 0))
		}
	}
	// gm
	addc(m.d, m.g, op.Gm)
	addc(m.d, m.s, -op.Gm)
	addc(m.s, m.g, -op.Gm)
	addc(m.s, m.s, op.Gm)
	// gds
	addc(m.d, m.d, op.Gds)
	addc(m.d, m.s, -op.Gds)
	addc(m.s, m.d, -op.Gds)
	addc(m.s, m.s, op.Gds)
	// gmb
	addc(m.d, m.b, op.Gmb)
	addc(m.d, m.s, -op.Gmb)
	addc(m.s, m.b, -op.Gmb)
	addc(m.s, m.s, op.Gmb)
	// Gate caps.
	cgs, cgd := m.Dev.GateCapacitance()
	cstampG(mat, m.g, m.s, complex(0, omega*cgs))
	cstampG(mat, m.g, m.d, complex(0, omega*cgd))
	// Breakdown gate leak.
	if gl := m.Dev.Damage.GateLeak; gl > 0 {
		cstampG(mat, m.g, m.s, complex(gl/2, 0))
		cstampG(mat, m.g, m.d, complex(gl/2, 0))
	}
}
