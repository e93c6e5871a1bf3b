// Package circuit implements a small but complete analog circuit simulator
// based on modified nodal analysis (MNA): nonlinear DC operating point with
// gmin and source stepping, fixed-step transient analysis with
// Backward-Euler or trapezoidal integration, DC sweeps and small-signal AC
// analysis. It is the substrate on which every experiment in this
// repository runs — degradation, variability, EMC and adaptation studies
// all ultimately resolve to circuit simulations here.
package circuit

import (
	"fmt"
	"sort"

	"repro/internal/device"
)

// Ground is the node index of the reference node "0".
const Ground = -1

// Circuit is a netlist of elements connected between named nodes. Build one
// with New and the Add* methods; it is not safe for concurrent mutation,
// but independent Circuits may be simulated concurrently.
type Circuit struct {
	nodeIndex map[string]int
	nodeNames []string
	elements  []element
	byName    map[string]element
	branches  int
	// slv is the lazily built reusable solve context (matrices, scratch
	// vectors, warm-start state); see solver.go.
	slv *solver
	// newtonIters accumulates Newton iterations across every solve on
	// this circuit — run telemetry for Monte-Carlo harnesses.
	newtonIters int64
	// backend selects the linear-solver matrix representation; see
	// SetMatrixBackend.
	backend MatrixBackend
	// meter stages the solver metrics between flushes; see metrics.go.
	meter meter
	// mosfets caches the name-sorted MOSFET list; addElement drops it.
	mosfets []*MOSFET
}

// MatrixBackend selects the linear-solver matrix representation.
type MatrixBackend int

const (
	// BackendAuto picks sparse for large, sparse MNA systems and dense
	// otherwise (the default). The thresholds keep every small circuit on
	// the dense path, so existing results are bit-identical.
	BackendAuto MatrixBackend = iota
	// BackendDense forces the dense LU regardless of size.
	BackendDense
	// BackendSparse forces the sparse Markowitz LU regardless of size
	// (still subject to the runtime dense fallback on numeric failure).
	BackendSparse
)

// String names the backend.
func (b MatrixBackend) String() string {
	switch b {
	case BackendDense:
		return "dense"
	case BackendSparse:
		return "sparse"
	default:
		return "auto"
	}
}

// SetMatrixBackend selects how the MNA system is represented and factored.
// Changing the backend drops the cached solve context (including the
// warm-start state); the next solve rebuilds it.
//
// test seam: the circuit, core and root-package sparse tests and
// benchmarks pin the backend through it; production solves run on the
// automatic choice.
func (c *Circuit) SetMatrixBackend(b MatrixBackend) {
	if c.backend == b {
		return
	}
	c.backend = b
	c.dropSolver()
}

// UsingSparse reports whether the most recently built solve context runs
// on the sparse backend.
//
// test seam: the circuit, core and jobspec tests assert the backend
// choice through it.
func (c *Circuit) UsingSparse() bool {
	return c.slv != nil && c.slv.useSparse
}

// NewtonIterations returns the cumulative number of Newton iterations
// performed by every DC, sweep and transient solve on this circuit. It is
// the per-trial cost metric that reliability runs aggregate into their
// telemetry.
func (c *Circuit) NewtonIterations() int64 { return c.newtonIters }

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{
		nodeIndex: make(map[string]int),
		byName:    make(map[string]element),
	}
}

// Node interns a node name and returns its index; "0" and "gnd" map to
// Ground.
func (c *Circuit) Node(name string) int {
	if name == "0" || name == "gnd" || name == "GND" {
		return Ground
	}
	if i, ok := c.nodeIndex[name]; ok {
		return i
	}
	i := len(c.nodeNames)
	c.nodeIndex[name] = i
	c.nodeNames = append(c.nodeNames, name)
	return i
}

// NodeNames returns the non-ground node names in index order.
func (c *Circuit) NodeNames() []string {
	return append([]string(nil), c.nodeNames...)
}

// NumUnknowns returns the size of the MNA system (nodes + branch currents).
func (c *Circuit) NumUnknowns() int { return len(c.nodeNames) + c.branches }

// HasElement reports whether an element with the given name exists.
func (c *Circuit) HasElement(name string) bool {
	_, ok := c.byName[name]
	return ok
}

// ElementNames returns all element names, sorted.
func (c *Circuit) ElementNames() []string {
	out := make([]string, 0, len(c.byName))
	for n := range c.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (c *Circuit) addElement(e element) {
	if e.name() == "" {
		panic("circuit: element with empty name")
	}
	if _, dup := c.byName[e.name()]; dup {
		panic(fmt.Sprintf("circuit: duplicate element name %q", e.name()))
	}
	c.elements = append(c.elements, e)
	c.byName[e.name()] = e
	c.mosfets = nil
}

func (c *Circuit) newBranch() int {
	i := len(c.nodeNames) + c.branches
	c.branches++
	return i
}

// AddResistor adds a resistor of r ohms between nodes a and b. It panics
// for r <= 0.
func (c *Circuit) AddResistor(name, a, b string, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("circuit: resistor %s with non-positive value %g", name, r))
	}
	c.addElement(&resistor{nm: name, a: c.Node(a), b: c.Node(b), g: 1 / r})
}

// AddCapacitor adds a capacitor of f farads between nodes a and b. It
// panics for f <= 0.
func (c *Circuit) AddCapacitor(name, a, b string, f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("circuit: capacitor %s with non-positive value %g", name, f))
	}
	c.addElement(&capacitor{nm: name, a: c.Node(a), b: c.Node(b), c: f})
}

// AddInductor adds an inductor of h henries between nodes a and b. It
// panics for h <= 0.
func (c *Circuit) AddInductor(name, a, b string, h float64) {
	if h <= 0 {
		panic(fmt.Sprintf("circuit: inductor %s with non-positive value %g", name, h))
	}
	c.addElement(&inductor{nm: name, a: c.Node(a), b: c.Node(b), l: h, branch: -2})
}

// AddVSource adds an independent voltage source between p (positive) and n
// driven by w.
func (c *Circuit) AddVSource(name, p, n string, w Waveform) *VSource {
	v := &VSource{nm: name, p: c.Node(p), n: c.Node(n), W: w}
	c.addElement(v)
	v.branch = -2 // unassigned until prepare runs at the next solve
	return v
}

// AddISource adds an independent current source pushing current from p to
// n (through the source), driven by w.
func (c *Circuit) AddISource(name, p, n string, w Waveform) *ISource {
	i := &ISource{nm: name, p: c.Node(p), n: c.Node(n), W: w}
	c.addElement(i)
	return i
}

// AddVCCS adds a voltage-controlled current source: a current g·V(cp,cn)
// flows from p to n.
func (c *Circuit) AddVCCS(name, p, n, cp, cn string, g float64) {
	c.addElement(&vccs{nm: name, p: c.Node(p), n: c.Node(n), cp: c.Node(cp), cn: c.Node(cn), g: g})
}

// AddVCVS adds a voltage-controlled voltage source: V(p,n) =
// gain·V(cp,cn). Behavioural building block for ideal amplifiers.
func (c *Circuit) AddVCVS(name, p, n, cp, cn string, gain float64) {
	c.addElement(&vcvs{
		nm: name, p: c.Node(p), n: c.Node(n),
		cp: c.Node(cp), cn: c.Node(cn), gain: gain, branch: -2,
	})
}

// AddMOSFET adds a four-terminal MOSFET (drain, gate, source, bulk) using
// the given device model instance. The returned element allows the caller
// to mutate mismatch and damage between simulations.
func (c *Circuit) AddMOSFET(name, d, g, s, b string, dev *device.Mosfet) *MOSFET {
	m := &MOSFET{
		nm: name, d: c.Node(d), g: c.Node(g), s: c.Node(s), b: c.Node(b),
		Dev: dev,
	}
	c.addElement(m)
	return m
}

// AddDiode adds a diode from anode a to cathode k.
func (c *Circuit) AddDiode(name, a, k string, dev *device.Diode) {
	c.addElement(&diodeElem{nm: name, a: c.Node(a), k: c.Node(k), dev: dev})
}

// ResistorInfo returns the terminal node names and resistance of the named
// resistor; the electromigration extractor uses it to turn solved node
// voltages into branch currents.
func (c *Circuit) ResistorInfo(name string) (a, b string, ohms float64, err error) {
	e, ok := c.byName[name]
	if !ok {
		return "", "", 0, fmt.Errorf("circuit: no element %q", name)
	}
	r, ok := e.(*resistor)
	if !ok {
		return "", "", 0, fmt.Errorf("circuit: element %q is %T, not a resistor", name, e)
	}
	return c.nodeName(r.a), c.nodeName(r.b), 1 / r.g, nil
}

// nodeName maps a node index back to its name ("0" for ground).
func (c *Circuit) nodeName(i int) string {
	if i == Ground {
		return "0"
	}
	return c.nodeNames[i]
}

// MOSFETByName returns the MOSFET element with the given name.
func (c *Circuit) MOSFETByName(name string) (*MOSFET, error) {
	e, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("circuit: no element %q", name)
	}
	m, ok := e.(*MOSFET)
	if !ok {
		return nil, fmt.Errorf("circuit: element %q is %T, not a MOSFET", name, e)
	}
	return m, nil
}

// MOSFETs returns all MOSFET elements, sorted by name, in a fresh slice
// the caller owns.
func (c *Circuit) MOSFETs() []*MOSFET {
	return append([]*MOSFET(nil), c.MOSFETList()...)
}

// MOSFETList returns the circuit's cached name-sorted MOSFET list without
// copying it — the per-trial path of Monte-Carlo mismatch sampling. The
// slice is shared: callers must not modify it. Adding an element builds a
// new list and leaves slices handed out earlier untouched.
func (c *Circuit) MOSFETList() []*MOSFET {
	if c.mosfets == nil {
		out := []*MOSFET{}
		for _, e := range c.elements {
			if m, ok := e.(*MOSFET); ok {
				out = append(out, m)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].nm < out[j].nm })
		c.mosfets = out
	}
	return c.mosfets
}

// ResistorNames returns every resistor's name in sorted order — the
// enumeration the electromigration layer walks to synthesize wire
// geometries for a whole deck.
func (c *Circuit) ResistorNames() []string {
	var out []string
	for _, e := range c.elements {
		if r, ok := e.(*resistor); ok {
			out = append(out, r.nm)
		}
	}
	sort.Strings(out)
	return out
}

// prepare assigns branch indices to branch elements. Branch unknowns live
// after the node unknowns, so the assignment is redone from scratch on
// every call: element order is fixed, which keeps indices stable between
// solves, while nodes added since the last solve shift the branch block up
// instead of colliding with it.
func (c *Circuit) prepare() {
	c.branches = 0
	for _, e := range c.elements {
		if be, ok := e.(branchElement); ok {
			be.assignBranch(c)
		}
	}
}

// VSourceByName returns the voltage source with the given name.
func (c *Circuit) VSourceByName(name string) (*VSource, error) {
	e, ok := c.byName[name]
	if !ok {
		return nil, fmt.Errorf("circuit: no element %q", name)
	}
	v, ok := e.(*VSource)
	if !ok {
		return nil, fmt.Errorf("circuit: element %q is %T, not a VSource", name, e)
	}
	return v, nil
}
