// Package adapt implements the "knobs and monitors" resilience concept of
// the paper's Section 5.2 (Fig. 6): monitors measure the actual performance
// of a running circuit, knobs are tunable circuit parameters, and a control
// algorithm picks the knob configuration that keeps every monitored
// specification satisfied as the circuit degrades. The package provides
// exhaustive and greedy (coordinate-descent) controllers and a mission
// runner that interleaves aging with re-tuning, so adaptive and static
// designs can be compared over a lifetime.
package adapt

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/variation"
)

// Monitor measures one performance figure of the system — the paper calls
// for "simple measurement circuits"; here a monitor is any function of the
// simulated circuit.
type Monitor struct {
	Name    string
	Measure func(c *circuit.Circuit) (float64, error)
}

// ACGainMonitor returns a monitor reading |V(node)| from a small-signal AC
// analysis at freq (the stimulus source must have ACMag set).
func ACGainMonitor(name, node string, freq float64) Monitor {
	return Monitor{Name: name, Measure: func(c *circuit.Circuit) (float64, error) {
		pts, err := c.AC([]float64{freq})
		if err != nil {
			return 0, err
		}
		return pts[0].Mag(node), nil
	}}
}

// SupplyCurrentMonitor returns a monitor reading the magnitude of the
// current drawn from the named voltage source — the power cost the paper
// acknowledges adaptation may incur.
func SupplyCurrentMonitor(name, source string) Monitor {
	return Monitor{Name: name, Measure: func(c *circuit.Circuit) (float64, error) {
		sol, err := c.OperatingPoint()
		if err != nil {
			return 0, err
		}
		i, err := sol.BranchCurrent(source)
		if err != nil {
			return 0, err
		}
		return math.Abs(i), nil
	}}
}

// Knob is one tunable circuit parameter with discrete settings — a
// reconfigurable bias, a switchable device bank, a body-bias level.
type Knob struct {
	Name   string
	Levels []float64
	// Apply installs a level value into the circuit.
	Apply func(value float64)
	idx   int
}

// NewKnob builds a knob and applies its first level. It panics on an empty
// level list or nil Apply.
func NewKnob(name string, levels []float64, apply func(float64)) *Knob {
	if len(levels) == 0 || apply == nil {
		panic("adapt: knob needs levels and an apply function")
	}
	k := &Knob{Name: name, Levels: levels, Apply: apply}
	k.SetIndex(0)
	return k
}

// VSourceKnob builds a knob that retunes a DC voltage source.
func VSourceKnob(name string, src *circuit.VSource, levels []float64) *Knob {
	return NewKnob(name, levels, func(v float64) { src.W = circuit.DC(v) })
}

// SetIndex selects and applies level i.
func (k *Knob) SetIndex(i int) {
	if i < 0 || i >= len(k.Levels) {
		panic(fmt.Sprintf("adapt: knob %s index %d out of range", k.Name, i))
	}
	k.idx = i
	k.Apply(k.Levels[i])
}

// Index returns the current level index.
func (k *Knob) Index() int { return k.idx }

// Value returns the current level value.
func (k *Knob) Value() float64 { return k.Levels[k.idx] }

// Policy selects the control search strategy.
type Policy int

const (
	// Exhaustive searches the full knob-setting product space — optimal
	// but exponential in knob count.
	Exhaustive Policy = iota
	// Greedy runs coordinate descent over knobs — linear per sweep, may
	// stop at a local optimum.
	Greedy
)

// String names the policy.
func (p Policy) String() string {
	if p == Greedy {
		return "greedy"
	}
	return "exhaustive"
}

// Controller closes the monitor → control → knob loop of Fig. 6.
type Controller struct {
	Knobs    []*Knob
	Monitors []Monitor
	// Specs are parallel to Monitors.
	Specs  []variation.Spec
	Policy Policy
}

// NewController validates and builds a controller.
func NewController(knobs []*Knob, monitors []Monitor, specs []variation.Spec, policy Policy) (*Controller, error) {
	if len(knobs) == 0 {
		return nil, fmt.Errorf("adapt: controller needs at least one knob")
	}
	if len(monitors) == 0 || len(monitors) != len(specs) {
		return nil, fmt.Errorf("adapt: monitors (%d) and specs (%d) must pair up", len(monitors), len(specs))
	}
	return &Controller{Knobs: knobs, Monitors: monitors, Specs: specs, Policy: policy}, nil
}

// Evaluate measures every monitor and reports the spec-violation cost: 0
// when all specs pass, growing with normalised violation distance.
func (ct *Controller) Evaluate(c *circuit.Circuit) (values []float64, cost float64, err error) {
	values = make([]float64, len(ct.Monitors))
	for i, m := range ct.Monitors {
		v, err := m.Measure(c)
		if err != nil {
			return nil, 0, fmt.Errorf("adapt: monitor %s: %w", m.Name, err)
		}
		values[i] = v
		cost += specCost(ct.Specs[i], v)
	}
	return values, cost, nil
}

// specCost is the normalised violation distance of value v against spec s.
func specCost(s variation.Spec, v float64) float64 {
	scale := math.Max(math.Abs(s.Lo), math.Abs(s.Hi))
	if math.IsInf(scale, 0) || scale == 0 {
		scale = 1
	}
	switch {
	case v < s.Lo:
		return (s.Lo - v) / scale
	case v > s.Hi:
		return (v - s.Hi) / scale
	default:
		return 0
	}
}

// TuneResult reports one control action.
type TuneResult struct {
	// InSpec is true when a configuration satisfying all specs was found
	// (and left applied).
	InSpec bool
	// Cost is the residual violation cost of the applied configuration.
	Cost float64
	// Values are the monitor readings at the applied configuration.
	Values []float64
	// Evaluations counts monitor-sweep evaluations spent searching.
	Evaluations int
}

// Tune searches the knob space for the lowest-cost configuration and
// leaves it applied.
func (ct *Controller) Tune(c *circuit.Circuit) (*TuneResult, error) {
	switch ct.Policy {
	case Greedy:
		return ct.tuneGreedy(c)
	default:
		return ct.tuneExhaustive(c)
	}
}

func (ct *Controller) tuneExhaustive(c *circuit.Circuit) (*TuneResult, error) {
	best := make([]int, len(ct.Knobs))
	cur := make([]int, len(ct.Knobs))
	bestCost := math.Inf(1)
	var bestValues []float64
	evals := 0

	var rec func(k int) error
	rec = func(k int) error {
		if k == len(ct.Knobs) {
			values, cost, err := ct.Evaluate(c)
			evals++
			if err != nil {
				// An unconvergent configuration is just a bad one.
				return nil
			}
			if cost < bestCost {
				bestCost = cost
				copy(best, cur)
				bestValues = values
			}
			return nil
		}
		for i := range ct.Knobs[k].Levels {
			cur[k] = i
			ct.Knobs[k].SetIndex(i)
			if err := rec(k + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	if math.IsInf(bestCost, 1) {
		return nil, fmt.Errorf("adapt: no knob configuration converges")
	}
	for k, i := range best {
		ct.Knobs[k].SetIndex(i)
	}
	return &TuneResult{InSpec: bestCost == 0, Cost: bestCost, Values: bestValues, Evaluations: evals}, nil
}

func (ct *Controller) tuneGreedy(c *circuit.Circuit) (*TuneResult, error) {
	values, cost, err := ct.Evaluate(c)
	evals := 1
	if err != nil {
		values, cost = nil, math.Inf(1)
	}
	const maxSweeps = 5
	for sweep := 0; sweep < maxSweeps && cost > 0; sweep++ {
		improved := false
		for _, knob := range ct.Knobs {
			bestIdx := knob.Index()
			bestCost := cost
			var bestValues []float64 = values
			for i := range knob.Levels {
				if i == knob.Index() {
					continue
				}
				knob.SetIndex(i)
				v, cc, err := ct.Evaluate(c)
				evals++
				if err != nil {
					continue
				}
				if cc < bestCost {
					bestCost, bestIdx, bestValues = cc, i, v
				}
			}
			knob.SetIndex(bestIdx)
			if bestCost < cost {
				cost, values = bestCost, bestValues
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	if math.IsInf(cost, 1) {
		return nil, fmt.Errorf("adapt: no converging configuration found")
	}
	return &TuneResult{InSpec: cost == 0, Cost: cost, Values: values, Evaluations: evals}, nil
}
