package circuit

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
)

// ErrNoConvergence is returned when Newton iteration fails even after gmin
// and source-stepping homotopies.
var ErrNoConvergence = errors.New("circuit: operating point did not converge")

// ErrSingular is returned when the MNA matrix cannot be factored — a
// structurally defective netlist (floating subcircuit, short-circuited
// source loop) rather than a hard nonlinear solve. Both sentinels are the
// circuit layer's contribution to the failure taxonomy that Monte-Carlo
// harnesses classify with variation.ClassifyFailure.
var ErrSingular = errors.New("circuit: singular MNA matrix")

// Solution holds a converged DC solution: node voltages plus branch
// currents. It owns a copy of the solver's iterate, so it stays valid
// across later solves; a caller that only reads node voltages right after
// a solve can skip the copy with SolveOP and Circuit.Voltage.
type Solution struct {
	circ *Circuit
	X    []float64
}

// Voltage returns the solved voltage of the named node (0 for ground). It
// panics on unknown node names — asking for a node that does not exist is
// a programming error in the caller.
func (s *Solution) Voltage(node string) float64 {
	return s.circ.voltageIn(s.X, node)
}

// Voltage returns the named node's voltage (0 for ground) at the circuit's
// most recent converged DC solution — the values OperatingPoint copies into
// its Solution — read in place, without allocating. After SetInitialGuess
// and before the next solve it reads the seeded guess. It panics on unknown
// node names and when the circuit holds neither, as after
// ResetSolverState.
func (c *Circuit) Voltage(node string) float64 {
	if c.slv == nil || !c.slv.haveLast {
		panic("circuit: Voltage read before a converged operating point")
	}
	return c.voltageIn(c.slv.lastX, node)
}

// voltageIn reads node's voltage out of the MNA vector x.
func (c *Circuit) voltageIn(x []float64, node string) float64 {
	if node == "0" || node == "gnd" || node == "GND" {
		return 0
	}
	i, ok := c.nodeIndex[node]
	if !ok {
		panic(fmt.Sprintf("circuit: unknown node %q", node))
	}
	return x[i]
}

// BranchCurrent returns the current through the named voltage source or
// inductor (positive flowing from the + terminal through the element).
func (s *Solution) BranchCurrent(name string) (float64, error) {
	e, ok := s.circ.byName[name]
	if !ok {
		return 0, fmt.Errorf("circuit: no element %q", name)
	}
	be, ok := e.(branchElement)
	if !ok {
		return 0, fmt.Errorf("circuit: element %q carries no branch current", name)
	}
	return s.X[be.branchIndex()], nil
}

// opConfig collects operating-point solver tuning.
type opConfig struct {
	maxIter int
	tolV    float64
	damping float64
}

func defaultOPConfig() opConfig {
	return opConfig{maxIter: 300, tolV: 1e-9, damping: 0.5}
}

// OperatingPoint solves the nonlinear DC system with SolveOP and returns
// a copy of the converged solution.
func (c *Circuit) OperatingPoint() (*Solution, error) {
	if err := c.SolveOP(); err != nil {
		return nil, err
	}
	return &Solution{circ: c, X: append([]float64(nil), c.slv.lastX...)}, nil
}

// SolveOP solves the nonlinear DC system and keeps the solution inside the
// circuit, where Voltage reads it; a warm re-solve allocates nothing. It
// tries Newton from the circuit's last converged solution (when one
// exists), then plain Newton from zero, then gmin stepping, then source
// stepping; the cold three-stage ladder mirrors production SPICE behaviour
// and is the unconditional fallback whenever a warm start fails to
// converge.
func (c *Circuit) SolveOP() error {
	m := c.meterOn()
	var t0 int64
	if m != nil {
		t0 = obs.Mono()
	}
	err := c.operatingPoint()
	if m != nil {
		c.meter.ops++
		c.meter.opSec.ObserveNanos(obs.Mono() - t0)
		if err != nil {
			m.noConverge.Inc()
		}
	}
	c.flushMetrics()
	return err
}

// operatingPoint runs the warm-start attempt and the cold ladder, staging
// the per-stage fallback accounting in the circuit's meter.
func (c *Circuit) operatingPoint() error {
	c.prepare()
	n := c.NumUnknowns()
	if n == 0 {
		return errors.New("circuit: empty circuit")
	}
	cfg := defaultOPConfig()
	slv := c.solver()
	x := slv.x

	// Stage 0: warm start. Aging checkpoints, EMC re-measurements and
	// Monte-Carlo re-solves perturb the circuit only slightly between
	// OperatingPoint calls, so the previous solution usually converges in a
	// couple of iterations.
	if slv.haveLast {
		copy(x, slv.lastX)
		if err := c.newtonDC(x, 0, 1, cfg); err == nil {
			c.meter.warmHits++
			c.finishDC(slv, x)
			return nil
		}
	}

	// Stage 1: plain Newton from a zero start.
	zeroVec(x)
	if err := c.newtonDC(x, 0, 1, cfg); err == nil {
		c.finishDC(slv, x)
		return nil
	}

	// Stage 2: gmin stepping. Start with a heavy leak to ground and relax
	// it decade by decade, warm-starting each solve.
	if m := c.meter.inst; m != nil {
		m.opGminFalls.Inc()
	}
	zeroVec(x)
	ok := true
	for _, gmin := range []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 0} {
		if err := c.newtonDC(x, gmin, 1, cfg); err != nil {
			ok = false
			break
		}
	}
	if ok {
		c.finishDC(slv, x)
		return nil
	}

	// Stage 3: source stepping — ramp all independent sources from 0.
	if m := c.meter.inst; m != nil {
		m.opSourceFalls.Inc()
	}
	zeroVec(x)
	for _, scale := range []float64{0.02, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0} {
		if err := c.newtonDC(x, 0, scale, cfg); err != nil {
			return fmt.Errorf("%w (source stepping failed at scale %g: %v)", ErrNoConvergence, scale, err)
		}
	}
	c.finishDC(slv, x)
	return nil
}

// finishDC records device bias points and keeps x as the converged
// solution (the solver's scratch vector is reused by the next solve).
func (c *Circuit) finishDC(slv *solver, x []float64) {
	c.captureAll(x)
	slv.noteConverged(x)
}

// captureAll records the bias points of MOSFET elements at x.
func (c *Circuit) captureAll(x []float64) {
	for _, e := range c.elements {
		if m, ok := e.(*MOSFET); ok {
			m.capture(x)
		}
	}
}

// newtonDC iterates the DC system in place from the initial guess in x.
// After the first call on a circuit it performs zero heap allocations per
// iteration: the linear elements are stamped once into the solver baseline,
// each iteration replays the baseline by copy, stamps only the nonlinear
// elements, and factors and solves inside the reusable workspace. The
// iteration count accumulates on the circuit and reaches the metrics when
// the enclosing public call flushes, so the loop body is identical with
// metrics on or off.
func (c *Circuit) newtonDC(x []float64, gmin, srcScale float64, cfg opConfig) error {
	slv := c.solver()
	st := &slv.st
	*st = stamp{X: x, Mode: modeDC, Gmin: gmin, SrcScale: srcScale}
	c.stampBaseline(slv, st)
	for iter := 0; iter < cfg.maxIter; iter++ {
		c.newtonIters++
		c.stampIteration(slv, st)
		xNew, err := c.factorAndSolve(slv, st)
		if err != nil {
			if m := c.meter.inst; m != nil {
				m.singulars.Inc()
			}
			return fmt.Errorf("%w: %v", ErrSingular, err)
		}
		// Damped update: limit the largest voltage change per iteration to
		// keep the exponential models inside representable range.
		maxStep := 0.0
		for i := range x {
			if d := math.Abs(xNew[i] - x[i]); d > maxStep {
				maxStep = d
			}
		}
		alpha := 1.0
		const stepLimit = 0.6 // volts per iteration
		if maxStep > stepLimit {
			alpha = stepLimit / maxStep
		}
		var delta float64
		for i := range x {
			d := alpha * (xNew[i] - x[i])
			x[i] += d
			if ad := math.Abs(d); ad > delta {
				delta = ad
			}
		}
		if anyNaN(x) {
			return fmt.Errorf("%w: NaN in solution", ErrNoConvergence)
		}
		if delta < cfg.tolV && alpha == 1 {
			return nil
		}
	}
	return ErrNoConvergence
}

func anyNaN(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// DCSweep solves the operating point while stepping the waveform of the
// named source (which must be a VSource or ISource with a DC waveform)
// through values, warm-starting each point from the previous one. It
// returns one Solution per value.
func (c *Circuit) DCSweep(sourceName string, values []float64) ([]*Solution, error) {
	c.meterOn()
	defer c.flushMetrics()
	c.prepare()
	e, ok := c.byName[sourceName]
	if !ok {
		return nil, fmt.Errorf("circuit: no element %q", sourceName)
	}
	setV := func(val float64) error {
		switch s := e.(type) {
		case *VSource:
			s.W = DC(val)
		case *ISource:
			s.W = DC(val)
		default:
			return fmt.Errorf("circuit: element %q is %T, not sweepable", sourceName, e)
		}
		return nil
	}
	out := make([]*Solution, 0, len(values))
	var x []float64
	cfg := defaultOPConfig()
	for _, val := range values {
		if err := setV(val); err != nil {
			return nil, err
		}
		if x == nil {
			sol, err := c.OperatingPoint()
			if err != nil {
				return nil, fmt.Errorf("circuit: sweep point %g: %w", val, err)
			}
			x = append([]float64(nil), sol.X...)
			out = append(out, sol)
			continue
		}
		// Warm start from the previous point.
		xi := append([]float64(nil), x...)
		if err := c.newtonDC(xi, 0, 1, cfg); err != nil {
			// Fall back to the full ladder; drop the stale warm-start state
			// first so OperatingPoint does not retry the guess that just
			// failed.
			c.ResetSolverState()
			sol, err2 := c.OperatingPoint()
			if err2 != nil {
				return nil, fmt.Errorf("circuit: sweep point %g: %w", val, err2)
			}
			xi = sol.X
		}
		c.captureAll(xi)
		c.solver().noteConverged(xi)
		x = xi
		out = append(out, &Solution{circ: c, X: append([]float64(nil), xi...)})
	}
	return out, nil
}
