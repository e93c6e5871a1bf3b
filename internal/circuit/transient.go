package circuit

import (
	"errors"
	"fmt"
	"math"
)

// TranSpec configures a transient analysis.
type TranSpec struct {
	// Stop is the final time in seconds.
	Stop float64
	// Step is the fixed time step in seconds.
	Step float64
	// Integrator selects Backward-Euler (default) or Trapezoidal.
	Integrator Integrator
	// Record lists node names to record; empty records every node.
	Record []string
	// SkipInitialOP starts from the all-zero state instead of a DC
	// operating point (models a cold power-up).
	SkipInitialOP bool
}

// Waveforms is the result of a transient run: aligned time points and
// per-node sample series.
type Waveforms struct {
	Times []float64
	nodes map[string][]float64
}

// Node returns the recorded samples of the named node. It panics if the
// node was not recorded.
func (w *Waveforms) Node(name string) []float64 {
	s, ok := w.nodes[name]
	if !ok {
		panic(fmt.Sprintf("circuit: node %q was not recorded", name))
	}
	return s
}

// HasNode reports whether samples exist for the named node.
func (w *Waveforms) HasNode(name string) bool {
	_, ok := w.nodes[name]
	return ok
}

// Nodes lists recorded node names (unordered).
func (w *Waveforms) Nodes() []string {
	out := make([]string, 0, len(w.nodes))
	for n := range w.nodes {
		out = append(out, n)
	}
	return out
}

// Transient runs a fixed-step transient analysis. The initial condition is
// the DC operating point with all time-dependent sources evaluated at t=0
// (unless SkipInitialOP).
func (c *Circuit) Transient(spec TranSpec) (*Waveforms, error) {
	if spec.Stop <= 0 || spec.Step <= 0 {
		return nil, fmt.Errorf("circuit: invalid transient spec stop=%g step=%g", spec.Stop, spec.Step)
	}
	c.meterOn()
	defer c.flushMetrics()
	c.prepare()
	n := c.NumUnknowns()
	if n == 0 {
		return nil, errors.New("circuit: empty circuit")
	}

	// Initial condition.
	var x []float64
	if spec.SkipInitialOP {
		x = make([]float64, n)
	} else {
		sol, err := c.OperatingPoint()
		if err != nil {
			return nil, fmt.Errorf("circuit: transient initial OP: %w", err)
		}
		x = append([]float64(nil), sol.X...)
	}
	for _, e := range c.elements {
		if se, ok := e.(stateful); ok {
			se.initState(x)
		}
	}

	record := spec.Record
	if len(record) == 0 {
		record = c.NodeNames()
	}
	recIdx := make([]int, len(record))
	for i, name := range record {
		recIdx[i] = c.Node(name)
	}

	steps := int(spec.Stop/spec.Step + 0.5)
	wf := &Waveforms{
		Times: make([]float64, 0, steps+1),
		nodes: make(map[string][]float64, len(record)),
	}
	for _, name := range record {
		wf.nodes[name] = make([]float64, 0, steps+1)
	}
	sample := func(t float64, x []float64) {
		wf.Times = append(wf.Times, t)
		for i, name := range record {
			wf.nodes[name] = append(wf.nodes[name], nodeV(x, recIdx[i]))
		}
	}
	sample(0, x)

	st := &stamp{
		X: x, Mode: modeTran, Dt: spec.Step, Intg: spec.Integrator,
		SrcScale: 1,
	}
	cfg := defaultOPConfig()
	cfg.maxIter = 100

	for k := 1; k <= steps; k++ {
		st.Time = float64(k) * spec.Step
		if err := c.newtonTran(st, cfg); err != nil {
			return nil, fmt.Errorf("circuit: transient step %d (t=%g): %w", k, st.Time, err)
		}
		for _, e := range c.elements {
			if se, ok := e.(stateful); ok {
				se.accept(st)
			}
		}
		sample(st.Time, st.X)
	}
	c.captureAll(st.X)
	return wf, nil
}

// newtonTran converges one transient step in place in st.X. Like newtonDC
// it is allocation-free in steady state: the linear companion stamps are
// rebuilt once per timestep (their equivalent sources depend on the
// committed state), and each Newton iteration replays them by copy before
// stamping the nonlinear devices.
func (c *Circuit) newtonTran(st *stamp, cfg opConfig) error {
	slv := c.solver()
	c.stampBaseline(slv, st)
	for iter := 0; iter < cfg.maxIter; iter++ {
		c.newtonIters++
		c.stampIteration(slv, st)
		xNew, err := c.factorAndSolve(slv, st)
		if err != nil {
			return fmt.Errorf("%w: transient: %v", ErrSingular, err)
		}
		var delta float64
		for i := range st.X {
			d := xNew[i] - st.X[i]
			st.X[i] = xNew[i]
			if ad := math.Abs(d); ad > delta {
				delta = ad
			}
		}
		if anyNaN(st.X) {
			return errors.New("circuit: NaN in transient solution")
		}
		if delta < cfg.tolV*10 {
			return nil
		}
	}
	return ErrNoConvergence
}
