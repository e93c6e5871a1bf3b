package circuit

import (
	"errors"
	"fmt"
	"math"
)

// AdaptiveSpec configures a variable-step transient analysis with local
// truncation error (LTE) control, the production-simulator counterpart of
// the fixed-step Transient: the step grows through quiescent stretches and
// shrinks around fast edges.
type AdaptiveSpec struct {
	// Stop is the final time in seconds.
	Stop float64
	// MinStep and MaxStep bound the step size.
	MinStep, MaxStep float64
	// LTETol is the per-step error tolerance in volts (predictor-corrector
	// estimate).
	LTETol float64
	// Integrator selects the corrector; Trapezoidal recommended.
	Integrator Integrator
	// Record lists node names to record; empty records every node.
	Record []string
}

// Validate checks the spec.
func (s AdaptiveSpec) Validate() error {
	switch {
	case s.Stop <= 0:
		return fmt.Errorf("circuit: adaptive stop %g must be positive", s.Stop)
	case s.MinStep <= 0 || s.MaxStep < s.MinStep:
		return fmt.Errorf("circuit: bad step bounds [%g, %g]", s.MinStep, s.MaxStep)
	case s.LTETol <= 0:
		return fmt.Errorf("circuit: LTE tolerance %g must be positive", s.LTETol)
	}
	return nil
}

// TransientAdaptive runs a variable-step transient. The error estimate is
// the classic predictor-corrector difference: a linear extrapolation from
// the previous two accepted points predicts the new solution; the distance
// between prediction and the converged corrector bounds the local
// truncation error. Steps failing the tolerance are retried at half the
// size; comfortable steps grow by 1.5×.
func (c *Circuit) TransientAdaptive(spec AdaptiveSpec) (*Waveforms, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c.meterOn()
	defer c.flushMetrics()
	c.prepare()
	n := c.NumUnknowns()
	if n == 0 {
		return nil, errors.New("circuit: empty circuit")
	}
	sol, err := c.OperatingPoint()
	if err != nil {
		return nil, fmt.Errorf("circuit: adaptive initial OP: %w", err)
	}
	x := append([]float64(nil), sol.X...)
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
	wf := &Waveforms{nodes: make(map[string][]float64, len(record))}
	sample := func(t float64, xs []float64) {
		wf.Times = append(wf.Times, t)
		for i, name := range record {
			wf.nodes[name] = append(wf.nodes[name], nodeV(xs, recIdx[i]))
		}
	}
	sample(0, x)

	st := &stamp{
		X: x, Mode: modeTran, Intg: spec.Integrator, SrcScale: 1,
	}
	cfg := defaultOPConfig()
	cfg.maxIter = 100

	// State snapshots for rejected steps: element internal state is only
	// committed after acceptance, but st.X must be restorable.
	prevX := append([]float64(nil), x...)
	prevPrevX := append([]float64(nil), x...)
	tPrev, tPrevPrev := 0.0, 0.0
	firstStep := true

	now := 0.0
	dt := spec.MinStep * 4
	if dt > spec.MaxStep {
		dt = spec.MaxStep
	}
	const maxRejects = 40
	rejects := 0
	for now < spec.Stop {
		if dt > spec.Stop-now {
			dt = spec.Stop - now
		}
		if dt < spec.MinStep {
			dt = spec.MinStep
		}
		// Attempt a step from prevX.
		copy(st.X, prevX)
		st.Dt = dt
		st.Time = now + dt
		if err := c.newtonTran(st, cfg); err != nil {
			if dt/2 >= spec.MinStep {
				dt /= 2
				rejects++
				if rejects > maxRejects {
					return nil, fmt.Errorf("circuit: adaptive transient stalled at t=%g: %w", now, err)
				}
				continue
			}
			return nil, fmt.Errorf("circuit: adaptive step at t=%g: %w", now, err)
		}
		// LTE estimate: compare against the linear predictor through the
		// two previous accepted points.
		lte := 0.0
		if !firstStep {
			h0 := tPrev - tPrevPrev
			if h0 > 0 {
				for i := range st.X {
					slope := (prevX[i] - prevPrevX[i]) / h0
					pred := prevX[i] + slope*dt
					if d := math.Abs(st.X[i] - pred); d > lte {
						lte = d
					}
				}
			}
		}
		if lte > spec.LTETol && dt/2 >= spec.MinStep {
			dt /= 2
			rejects++
			if rejects > maxRejects {
				return nil, fmt.Errorf("circuit: adaptive transient cannot meet tolerance at t=%g (lte=%g)", now, lte)
			}
			continue
		}
		// Accept.
		rejects = 0
		for _, e := range c.elements {
			if se, ok := e.(stateful); ok {
				se.accept(st)
			}
		}
		tPrevPrev, tPrev = tPrev, st.Time
		copy(prevPrevX, prevX)
		copy(prevX, st.X)
		now = st.Time
		firstStep = false
		sample(now, st.X)
		// Grow the step when comfortably inside tolerance.
		if lte < spec.LTETol/4 {
			dt *= 1.5
			if dt > spec.MaxStep {
				dt = spec.MaxStep
			}
		}
	}
	c.captureAll(prevX)
	return wf, nil
}
