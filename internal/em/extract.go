package em

import (
	"fmt"

	"repro/internal/circuit"
)

// Binding ties one circuit resistor — standing in for a wire's parasitic
// resistance — to the physical wire geometry whose EM life it determines.
// This is the "EM-aware design flow" hook of §3.4: currents come from the
// electrical solution, geometry from layout.
type Binding struct {
	// Resistor names the circuit element carrying the wire's current.
	Resistor string
	// Wire is the physical segment; its Current field is overwritten.
	Wire *Wire
}

// AssignCurrents solves nothing itself: given an already-solved DC
// solution, it computes each bound resistor's branch current from the node
// voltages and installs it on the wire. Wires can then go straight into
// BlackModel.Check.
func AssignCurrents(c *circuit.Circuit, sol *circuit.Solution, bindings []Binding) error {
	for _, b := range bindings {
		if b.Wire == nil {
			return fmt.Errorf("em: binding for %q has no wire", b.Resistor)
		}
		a, k, ohms, err := c.ResistorInfo(b.Resistor)
		if err != nil {
			return err
		}
		b.Wire.Current = (sol.Voltage(a) - sol.Voltage(k)) / ohms
	}
	return nil
}

// CheckCircuit runs the full extract-and-check flow: solve the operating
// point, assign currents to the bound wires, and produce the EM report.
//
// paper: §3.4 — TestCheckCircuitFlow asserts that the simulated trunk
// current drives its narrow wire past the EM lifetime target.
func (m *BlackModel) CheckCircuit(c *circuit.Circuit, bindings []Binding, targetLife, tempK float64) (*Report, error) {
	sol, err := c.OperatingPoint()
	if err != nil {
		return nil, fmt.Errorf("em: operating point: %w", err)
	}
	if err := AssignCurrents(c, sol, bindings); err != nil {
		return nil, err
	}
	wires := make([]*Wire, len(bindings))
	for i, b := range bindings {
		wires[i] = b.Wire
	}
	return m.Check(wires, targetLife, tempK), nil
}
