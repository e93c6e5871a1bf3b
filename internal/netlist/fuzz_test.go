package netlist

import (
	"os"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

// parseVocab is the token set the parser understands, for building
// token-soup decks.
var parseVocab = []string{
	"R1", "C2", "L3", "V4", "I5", "M6", "D7", "G8", "X9", "Q0",
	"a", "b", "0", "vdd", "out", "in",
	"1k", "2u", "-3", "DC", "SIN(0", "1", "1meg)", "PULSE(0", "NMOS", "PMOS",
	"W=1u", "L=90n", ".tech", ".temp", ".end", ".subckt", ".ends",
	"90nm", "300", "*", ";", "(", ")",
}

// TestParseNeverPanics feeds the parser pseudo-random token soup built
// from its own vocabulary: errors are fine, panics are not.
func TestParseNeverPanics(t *testing.T) {
	vocab := parseVocab
	if err := quick.Check(func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		var b strings.Builder
		lines := 1 + rng.Intn(12)
		for l := 0; l < lines; l++ {
			tokens := rng.Intn(8)
			for k := 0; k < tokens; k++ {
				b.WriteString(vocab[rng.Intn(len(vocab))])
				b.WriteByte(' ')
			}
			b.WriteByte('\n')
		}
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("parser panicked on:\n%s\npanic: %v", b.String(), r)
			}
		}()
		_, _ = Parse(b.String())
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParseNeverPanicsOnGarbageBytes drives raw noise through the parser.
func TestParseNeverPanicsOnGarbageBytes(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		n := rng.Intn(200)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(rng.Intn(128))
		}
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("parser panicked on %q: %v", buf, r)
			}
		}()
		_, _ = Parse(string(buf))
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzNetlistParse feeds arbitrary text to the parser. It must never
// panic; a deck it accepts must come with a built circuit, and a small
// one must answer an operating-point request with a solution or an error,
// never a panic.
func FuzzNetlistParse(f *testing.F) {
	ota, err := os.ReadFile("../../examples/ota_reliability/ota.sp")
	if err != nil {
		f.Fatal(err)
	}
	for _, deck := range []string{string(ota), dividerDeck, inverterDeck, invDeck, nestedDeck} {
		f.Add(deck)
	}
	// Token soup from the vocabulary, one deck line per stride.
	for stride := 3; stride <= 7; stride += 2 {
		var b strings.Builder
		for i, tok := range parseVocab {
			b.WriteString(tok)
			if (i+1)%stride == 0 {
				b.WriteByte('\n')
			} else {
				b.WriteByte(' ')
			}
		}
		f.Add(b.String())
	}

	f.Fuzz(func(t *testing.T, text string) {
		d, err := Parse(text)
		if err != nil {
			if d != nil {
				t.Fatalf("Parse returned a deck together with error %v", err)
			}
			return
		}
		if d == nil || d.Circuit == nil || d.Tech == nil {
			t.Fatalf("accepted deck without a circuit or technology: %+v", d)
		}
		for name, m := range d.MOSFETs {
			if m == nil || !d.Circuit.HasElement(name) {
				t.Fatalf("MOSFET %q is not an element of the built circuit", name)
			}
		}
		if d.Circuit.NumUnknowns() <= 32 {
			_, _ = d.Circuit.OperatingPoint()
		}
	})
}
