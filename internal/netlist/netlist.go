// Package netlist parses a SPICE-flavoured text netlist into a simulatable
// circuit. The dialect covers what the reliability experiments need:
//
//   - comment lines and blank lines
//     .tech 180nm          — selects a technology card for MOSFETs
//     .temp 300            — simulation temperature in kelvin
//     .end                 — optional terminator
//     Rname a b 10k        — resistor
//     Cname a b 1u         — capacitor
//     Lname a b 10m        — inductor
//     Vname p n DC 1.8     — voltage source (DC / SIN(off ampl freq) / PULSE(lo hi del rise fall width period))
//     Iname p n DC 1m      — current source (same waveforms)
//     Mname d g s b NMOS W=1u L=180n   — MOSFET, model NMOS or PMOS
//     Dname a k            — junction diode
//     Gname p n cp cn 1m   — VCCS
//     .subckt NAME p1 p2 … / .ends    — subcircuit definition
//     Xname n1 n2 … NAME   — subcircuit instance (hierarchical, flattened)
//
// Subcircuit internals flatten with dotted prefixes: instance X1 of a
// block containing M1 and internal node mid yields element "X1.M1" on
// node "X1.mid". Ground ("0"/gnd) is global. Engineering suffixes:
// f p n u m k meg g t (case-insensitive).
//
// The netlist is the entry point for reproducing the paper's studies on
// arbitrary circuits: cmd/relsim parses a deck and then applies the
// Section 2 mismatch Monte Carlo, the Section 3 aging mission, or plain
// electrical analyses to it.
package netlist

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/device"
)

// Deck is the result of parsing: the circuit plus the metadata directives.
type Deck struct {
	Circuit *circuit.Circuit
	// Tech is the technology card selected by .tech (default 180nm).
	Tech *device.Technology
	// TempK is the simulation temperature (default 300 K).
	TempK float64
	// MOSFETs maps element name to its circuit handle for the aging and
	// variability layers.
	MOSFETs map[string]*circuit.MOSFET
	// Title is the first comment line, if any.
	Title string
}

// Parse reads a netlist from text.
func Parse(text string) (*Deck, error) {
	d := &Deck{
		Circuit: circuit.New(),
		TempK:   300,
		MOSFETs: make(map[string]*circuit.MOSFET),
	}
	var err error
	d.Tech, err = device.TechByName("180nm")
	if err != nil {
		return nil, err
	}

	type mosLine struct {
		lineNo int
		fields []string
	}
	var mosLines []mosLine // deferred until .tech/.temp are known

	subckts := make(map[string]*subcktDef)
	var current *subcktDef // non-nil while inside .subckt … .ends

	// expand flattens a subcircuit instance (possibly nested) into plain
	// element lines with dotted prefixes.
	var expand func(lineNo int, inst string, nodes []string, def *subcktDef, depth int) error
	var handleElement func(lineNo int, fields []string) error
	handleElement = func(lineNo int, fields []string) error {
		head := strings.ToUpper(fields[0])
		switch head[0] {
		case 'M':
			mosLines = append(mosLines, mosLine{lineNo, fields})
			return nil
		case 'X':
			if len(fields) < 3 {
				return lineErr(lineNo, "instance needs: Xname nodes... SUBNAME")
			}
			subName := strings.ToUpper(fields[len(fields)-1])
			def, ok := subckts[subName]
			if !ok {
				return lineErr(lineNo, "unknown subcircuit %q", fields[len(fields)-1])
			}
			return expand(lineNo, fields[0], fields[1:len(fields)-1], def, 0)
		default:
			return d.parseElement(lineNo, fields)
		}
	}
	expand = func(lineNo int, inst string, nodes []string, def *subcktDef, depth int) error {
		if depth > 20 {
			return lineErr(lineNo, "subcircuit nesting deeper than 20 — recursive definition?")
		}
		if len(nodes) != len(def.ports) {
			return lineErr(lineNo, "instance %s connects %d nodes, subcircuit %s has %d ports",
				inst, len(nodes), def.name, len(def.ports))
		}
		portMap := make(map[string]string, len(def.ports))
		for i, p := range def.ports {
			portMap[p] = nodes[i]
		}
		mapNode := func(n string) string {
			if n == "0" || n == "gnd" || n == "GND" {
				return "0"
			}
			if actual, ok := portMap[n]; ok {
				return actual
			}
			return inst + "." + n
		}
		for _, body := range def.lines {
			f := append([]string(nil), body...)
			f[0] = inst + "." + f[0]
			head := strings.ToUpper(body[0])
			// Rewrite the node fields of each element kind.
			var nNodes int
			switch head[0] {
			case 'R', 'C', 'L', 'V', 'I', 'D':
				nNodes = 2
			case 'G', 'M', 'E':
				nNodes = 4
			case 'X':
				nNodes = len(f) - 2 // all but name and subckt ref
			default:
				return lineErr(lineNo, "unsupported element %q inside subcircuit %s", body[0], def.name)
			}
			for i := 1; i <= nNodes && i < len(f); i++ {
				f[i] = mapNode(f[i])
			}
			if head[0] == 'X' {
				subName := strings.ToUpper(f[len(f)-1])
				inner, ok := subckts[subName]
				if !ok {
					return lineErr(lineNo, "unknown subcircuit %q", f[len(f)-1])
				}
				if err := expand(lineNo, f[0], f[1:len(f)-1], inner, depth+1); err != nil {
					return err
				}
				continue
			}
			if head[0] == 'M' {
				mosLines = append(mosLines, mosLine{lineNo, f})
				continue
			}
			if err := d.parseElement(lineNo, f); err != nil {
				return err
			}
		}
		return nil
	}

	lines := strings.Split(text, "\n")
	for lineNo, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "*") {
			if d.Title == "" {
				d.Title = strings.TrimSpace(strings.TrimPrefix(line, "*"))
			}
			continue
		}
		// Strip trailing comment.
		if i := strings.Index(line, ";"); i >= 0 {
			line = strings.TrimSpace(line[:i])
			if line == "" {
				continue
			}
		}
		fields := splitFields(line)
		head := strings.ToUpper(fields[0])

		// Subcircuit definition handling.
		if head == ".SUBCKT" {
			if current != nil {
				return nil, lineErr(lineNo, "nested .subckt definitions are not allowed")
			}
			if len(fields) < 3 {
				return nil, lineErr(lineNo, ".subckt needs a name and at least one port")
			}
			name := strings.ToUpper(fields[1])
			if _, dup := subckts[name]; dup {
				return nil, lineErr(lineNo, "duplicate subcircuit %q", fields[1])
			}
			current = &subcktDef{name: name, ports: fields[2:]}
			continue
		}
		if head == ".ENDS" {
			if current == nil {
				return nil, lineErr(lineNo, ".ends without .subckt")
			}
			subckts[current.name] = current
			current = nil
			continue
		}
		if current != nil {
			if strings.HasPrefix(head, ".") {
				return nil, lineErr(lineNo, "directive %s not allowed inside .subckt", fields[0])
			}
			current.lines = append(current.lines, fields)
			continue
		}

		switch {
		case head == ".END":
			// done; ignore the rest
		case head == ".TECH":
			if len(fields) != 2 {
				return nil, lineErr(lineNo, ".tech needs one argument")
			}
			t, err := device.TechByName(fields[1])
			if err != nil {
				return nil, lineErr(lineNo, "%v", err)
			}
			d.Tech = t
		case head == ".TEMP":
			if len(fields) != 2 {
				return nil, lineErr(lineNo, ".temp needs one argument")
			}
			v, err := ParseValue(fields[1])
			if err != nil || v <= 0 {
				return nil, lineErr(lineNo, "bad temperature %q", fields[1])
			}
			d.TempK = v
		case strings.HasPrefix(head, "."):
			return nil, lineErr(lineNo, "unknown directive %s", fields[0])
		default:
			if err := handleElement(lineNo, fields); err != nil {
				return nil, err
			}
		}
	}
	if current != nil {
		return nil, fmt.Errorf("netlist: unterminated .subckt %s", current.name)
	}
	// MOSFETs last, so .tech/.temp placed anywhere in the deck apply.
	for _, ml := range mosLines {
		if err := d.parseMOSFET(ml.lineNo, ml.fields); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// subcktDef is a parsed .subckt body awaiting expansion.
type subcktDef struct {
	name  string
	ports []string
	lines [][]string
}

func lineErr(lineNo int, format string, args ...interface{}) error {
	return fmt.Errorf("netlist: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
}

// splitFields splits on whitespace but keeps function-call groups like
// SIN(0 1 1k) together as single fields. The fields are substrings of line.
// Every byte it tests is ASCII, so scanning bytes splits valid UTF-8
// exactly where scanning runes would.
func splitFields(line string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c == '(':
			depth++
		case c == ')':
			depth--
		case (c == ' ' || c == '\t') && depth == 0:
			if i > start {
				out = append(out, line[start:i])
			}
			start = i + 1
		}
	}
	if start < len(line) {
		out = append(out, line[start:])
	}
	return out
}

// elemKind returns the dispatch letter of an element name, looking at the
// leaf segment so flattened subcircuit names ("X1.R1") classify by their
// inner element kind.
func elemKind(name string) byte {
	if i := strings.LastIndex(name, "."); i >= 0 {
		name = name[i+1:]
	}
	if name == "" {
		return 0
	}
	return strings.ToUpper(name)[0]
}

func (d *Deck) parseElement(lineNo int, f []string) error {
	name := f[0]
	if d.Circuit.HasElement(name) {
		return lineErr(lineNo, "duplicate element %q", name)
	}
	switch elemKind(name) {
	case 'R':
		if len(f) != 4 {
			return lineErr(lineNo, "resistor needs: Rname a b value")
		}
		v, err := ParseValue(f[3])
		if err != nil {
			return lineErr(lineNo, "%v", err)
		}
		if v <= 0 {
			return lineErr(lineNo, "resistor %s needs a positive value, got %g", name, v)
		}
		d.Circuit.AddResistor(name, f[1], f[2], v)
	case 'C':
		if len(f) != 4 {
			return lineErr(lineNo, "capacitor needs: Cname a b value")
		}
		v, err := ParseValue(f[3])
		if err != nil {
			return lineErr(lineNo, "%v", err)
		}
		if v <= 0 {
			return lineErr(lineNo, "capacitor %s needs a positive value, got %g", name, v)
		}
		d.Circuit.AddCapacitor(name, f[1], f[2], v)
	case 'L':
		if len(f) != 4 {
			return lineErr(lineNo, "inductor needs: Lname a b value")
		}
		v, err := ParseValue(f[3])
		if err != nil {
			return lineErr(lineNo, "%v", err)
		}
		if v <= 0 {
			return lineErr(lineNo, "inductor %s needs a positive value, got %g", name, v)
		}
		d.Circuit.AddInductor(name, f[1], f[2], v)
	case 'V':
		if len(f) < 4 {
			return lineErr(lineNo, "voltage source needs: Vname p n waveform")
		}
		w, err := parseWaveform(f[3:])
		if err != nil {
			return lineErr(lineNo, "%v", err)
		}
		d.Circuit.AddVSource(name, f[1], f[2], w)
	case 'I':
		if len(f) < 4 {
			return lineErr(lineNo, "current source needs: Iname p n waveform")
		}
		w, err := parseWaveform(f[3:])
		if err != nil {
			return lineErr(lineNo, "%v", err)
		}
		d.Circuit.AddISource(name, f[1], f[2], w)
	case 'D':
		if len(f) != 3 {
			return lineErr(lineNo, "diode needs: Dname anode cathode")
		}
		d.Circuit.AddDiode(name, f[1], f[2], device.NewDiode(d.TempK))
	case 'G':
		if len(f) != 6 {
			return lineErr(lineNo, "VCCS needs: Gname p n cp cn gm")
		}
		g, err := ParseValue(f[5])
		if err != nil {
			return lineErr(lineNo, "%v", err)
		}
		d.Circuit.AddVCCS(name, f[1], f[2], f[3], f[4], g)
	case 'E':
		if len(f) != 6 {
			return lineErr(lineNo, "VCVS needs: Ename p n cp cn gain")
		}
		g, err := ParseValue(f[5])
		if err != nil {
			return lineErr(lineNo, "%v", err)
		}
		d.Circuit.AddVCVS(name, f[1], f[2], f[3], f[4], g)
	default:
		return lineErr(lineNo, "unknown element %q", name)
	}
	return nil
}

func (d *Deck) parseMOSFET(lineNo int, f []string) error {
	// Mname d g s b MODEL [W=..] [L=..]
	if len(f) < 6 {
		return lineErr(lineNo, "MOSFET needs: Mname d g s b NMOS|PMOS [W=] [L=]")
	}
	if d.Circuit.HasElement(f[0]) {
		return lineErr(lineNo, "duplicate element %q", f[0])
	}
	model := strings.ToUpper(f[5])
	w := 1e-6
	l := d.Tech.Lmin
	for _, kv := range f[6:] {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return lineErr(lineNo, "bad parameter %q", kv)
		}
		v, err := ParseValue(parts[1])
		if err != nil {
			return lineErr(lineNo, "%v", err)
		}
		switch strings.ToUpper(parts[0]) {
		case "W":
			w = v
		case "L":
			l = v
		default:
			return lineErr(lineNo, "unknown MOSFET parameter %q", parts[0])
		}
	}
	var params device.MOSParams
	switch model {
	case "NMOS":
		params = d.Tech.NMOSParams(w, l, d.TempK)
	case "PMOS":
		params = d.Tech.PMOSParams(w, l, d.TempK)
	default:
		return lineErr(lineNo, "unknown MOSFET model %q", model)
	}
	if err := params.Validate(); err != nil {
		return lineErr(lineNo, "%v", err)
	}
	m := d.Circuit.AddMOSFET(f[0], f[1], f[2], f[3], f[4], device.NewMosfet(params))
	d.MOSFETs[f[0]] = m
	return nil
}

func parseWaveform(f []string) (circuit.Waveform, error) {
	if len(f) == 0 {
		return nil, fmt.Errorf("netlist: source needs a waveform")
	}
	up := strings.ToUpper(f[0])
	switch {
	case up == "DC":
		if len(f) != 2 {
			return nil, fmt.Errorf("netlist: DC needs one value")
		}
		v, err := ParseValue(f[1])
		if err != nil {
			return nil, err
		}
		return circuit.DC(v), nil
	case strings.HasPrefix(up, "SIN(") || strings.HasPrefix(up, "SIN "):
		args, err := parseCallArgs(strings.Join(f, " "), "SIN")
		if err != nil {
			return nil, err
		}
		if len(args) < 3 {
			return nil, fmt.Errorf("netlist: SIN needs (offset ampl freq [phase_deg])")
		}
		s := circuit.Sine{Offset: args[0], Ampl: args[1], Freq: args[2]}
		if len(args) >= 4 {
			s.Phase = args[3] * math.Pi / 180
		}
		return s, nil
	case strings.HasPrefix(up, "PULSE(") || strings.HasPrefix(up, "PULSE "):
		args, err := parseCallArgs(strings.Join(f, " "), "PULSE")
		if err != nil {
			return nil, err
		}
		if len(args) < 7 {
			return nil, fmt.Errorf("netlist: PULSE needs (lo hi delay rise fall width period)")
		}
		return circuit.Pulse{
			Low: args[0], High: args[1], Delay: args[2],
			Rise: args[3], Fall: args[4], Width: args[5], Period: args[6],
		}, nil
	default:
		// Bare number is DC shorthand.
		if len(f) == 1 {
			v, err := ParseValue(f[0])
			if err != nil {
				return nil, err
			}
			return circuit.DC(v), nil
		}
		return nil, fmt.Errorf("netlist: unknown waveform %q", f[0])
	}
}

// parseCallArgs extracts numbers from "NAME(a b c)" possibly containing
// spaces.
func parseCallArgs(s, name string) ([]float64, error) {
	up := strings.ToUpper(s)
	i := strings.Index(up, name+"(")
	if i < 0 {
		return nil, fmt.Errorf("netlist: malformed %s(...)", name)
	}
	rest := s[i+len(name)+1:]
	j := strings.Index(rest, ")")
	if j < 0 {
		return nil, fmt.Errorf("netlist: unterminated %s(...)", name)
	}
	var out []float64
	for _, tok := range strings.Fields(strings.ReplaceAll(rest[:j], ",", " ")) {
		v, err := ParseValue(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseValue parses a SPICE number with optional engineering suffix:
// 1k = 1e3, 2.2u = 2.2e-6, 10meg = 1e7, 1m = 1e-3, etc.
func ParseValue(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("netlist: empty number")
	}
	lower := strings.ToLower(s)
	mult := 1.0
	num := lower
	switch {
	case strings.HasSuffix(lower, "meg"):
		mult, num = 1e6, lower[:len(lower)-3]
	case strings.HasSuffix(lower, "f"):
		mult, num = 1e-15, lower[:len(lower)-1]
	case strings.HasSuffix(lower, "p"):
		mult, num = 1e-12, lower[:len(lower)-1]
	case strings.HasSuffix(lower, "n"):
		mult, num = 1e-9, lower[:len(lower)-1]
	case strings.HasSuffix(lower, "u"), strings.HasSuffix(lower, "µ"):
		mult, num = 1e-6, strings.TrimSuffix(strings.TrimSuffix(lower, "u"), "µ")
	case strings.HasSuffix(lower, "m"):
		mult, num = 1e-3, lower[:len(lower)-1]
	case strings.HasSuffix(lower, "k"):
		mult, num = 1e3, lower[:len(lower)-1]
	case strings.HasSuffix(lower, "g"):
		mult, num = 1e9, lower[:len(lower)-1]
	case strings.HasSuffix(lower, "t"):
		mult, num = 1e12, lower[:len(lower)-1]
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		// Maybe the suffix stripping ate part of an exponent ("1e-3m" is
		// not a thing, but "2e3" must parse with no suffix).
		v2, err2 := strconv.ParseFloat(lower, 64)
		if err2 != nil {
			return 0, fmt.Errorf("netlist: bad number %q", s)
		}
		return v2, nil
	}
	return v * mult, nil
}
