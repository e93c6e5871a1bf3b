package jobspec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/device"
	"repro/internal/mathx"
	"repro/internal/netlist"
	"repro/internal/variation"
)

// TestMCBatchDefaultsAndValidation pins the retirement of mc.batch:
// ApplyDefaults writes no batch field into a valid MC spec, so a
// journaled submit record no longer carries one. (The job server's
// strict decode refusing one is serve's TestSubmitValidation.)
func TestMCBatchDefaultsAndValidation(t *testing.T) {
	s := &Spec{Analysis: KindMC, Netlist: inverterDeck, MC: &MCParams{Trials: 10, Node: "out"}}
	s.ApplyDefaults()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"batch"`)) {
		t.Fatalf("defaulted MC spec carries a batch field: %s", b)
	}
}

// TestMCBatchExcludedFromHash decodes, leniently as journal replay does,
// the MC spec of TestCanonicalHashPins as a journal written before
// mc.batch was retired holds it, with "batch":32, and checks it keeps
// the pinned hash: batch was always cleared from the hash, so no cached
// result is orphaned.
func TestMCBatchExcludedFromHash(t *testing.T) {
	const want = "bc6ddafee51124018e88ea21a986a79f7af19b9c363230ec7ed81568fd1dffc5"
	deck, _ := json.Marshal(inverterDeck)
	old := fmt.Sprintf(`{"analysis":"mc","netlist":%s,"mc":{"trials":200,"node":"out","lo":0.2,"hi":0.9,"batch":32}}`, deck)
	var s Spec
	if err := json.Unmarshal([]byte(old), &s); err != nil {
		t.Fatal(err)
	}
	s.ApplyDefaults()
	if got := s.CanonicalHash(); got != want {
		t.Fatalf("journaled spec with mc.batch hashes %s, want %s", got, want)
	}
}

// ladderDeck is a resistively coupled chain of diode-connected NMOS
// stages; from about 94 stages circuit solves it with the sparse LU.
func ladderDeck(stages int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "* %d-stage diode ladder, 180nm\n.tech 180nm\nVSUP rail 0 DC 1.8\n", stages)
	prev := "rail"
	for i := 0; i < stages; i++ {
		n := fmt.Sprintf("n%04d", i)
		fmt.Fprintf(&b, "RF%04d rail %s 30k\nM%04d %s %s 0 0 NMOS W=2u L=720n\nRC%04d %s %s 50k\n",
			i, n, i, n, n, i, prev, n)
		prev = n
	}
	b.WriteString(".end\n")
	return b.String()
}

// valuesDigest is the SHA-256 of the per-trial values' IEEE-754 bits.
func valuesDigest(v []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// statsDigest is the SHA-256 of an MC outcome's Stats JSON.
func statsDigest(t *testing.T, mc *MCOutcome) string {
	t.Helper()
	b, err := json.Marshal(mc.Stats)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// executeValues executes s with executeMC's trial wrapped to record every
// trial's value, and returns the result with the successful values in
// trial order: the per-trial values the campaign folded into its Stats.
func executeValues(t *testing.T, s *Spec) (*Result, []float64) {
	t.Helper()
	vals := make([]float64, s.MC.Trials)
	ok := make([]bool, s.MC.Trials)
	saved := mcTrial
	defer func() { mcTrial = saved }()
	mcTrial = func(pool *variation.DiePool, tech *device.Technology, corner variation.Corner, node string) variation.Trial {
		trial := saved(pool, tech, corner, node)
		return func(rng *mathx.RNG, i int) (float64, error) {
			v, err := trial(rng, i)
			if err == nil && !math.IsNaN(v) {
				vals[i], ok[i] = v, true
			}
			return v, err
		}
	}
	res, err := Execute(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for i, v := range vals {
		if ok[i] {
			out = append(out, v)
		}
	}
	return res, out
}

// TestMCBatchBitIdenticalExecution pins every per-trial value of two MC
// campaigns to digests recorded when each trial parsed a fresh deck, so
// keeping one die per worker for the whole job moves no value, on any
// worker count, and pins the Stats JSON the result carries. The
// 128-stage ladder runs the sparse LU, whose pivot order is chosen at a
// die's first factorisation and survives the reset between trials.
func TestMCBatchBitIdenticalExecution(t *testing.T) {
	cases := []struct {
		name, deck, node string
		seed             uint64
		want, wantStats  string
	}{
		{"inverter", inverterDeck, "out", 9,
			"fc99c8cf14a3db9af7f368c2368d3f29a598cb03268ee704f840200e171a51c6",
			"ff95dc5b71c82a2bae96710ca35768370769e8f9e92bb0c6321d28975bc7a65b"},
		{"ladder128", ladderDeck(128), "n0127", 5,
			"9317045a98ff36dd6238139d54519e3efbbe4108cd0f8054ebf7183e4c49a270",
			"4742d7339155d1ef4aacff97eb3b4072aee817b9cecf7c8ef1fca4cc3cc2d859"},
	}
	ladder, err := netlist.Parse(cases[1].deck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ladder.Circuit.OperatingPoint(); err != nil || !ladder.Circuit.UsingSparse() {
		t.Fatalf("ladder deck does not solve on the sparse LU (err %v)", err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			s := &Spec{Analysis: KindMC, Netlist: tc.deck, Seed: tc.seed,
				MC: &MCParams{Trials: 300, Node: tc.node}}
			s.ApplyDefaults()
			res, vals := executeValues(t, s)
			if n := len(vals); n != 300 {
				t.Fatalf("%s GOMAXPROCS=%d: %d values, want 300", tc.name, procs, n)
			}
			if got := valuesDigest(vals); got != tc.want {
				t.Errorf("%s GOMAXPROCS=%d: values digest %s, want %s", tc.name, procs, got, tc.want)
			}
			if got := statsDigest(t, res.MC); got != tc.wantStats {
				t.Errorf("%s GOMAXPROCS=%d: stats digest %s, want %s", tc.name, procs, got, tc.wantStats)
			}
		}
	}
}

// TestMCParsesDeckOncePerDie counts the netlist parses of MC jobs: the
// first pooled die is the deck Execute already parsed, so a worker that
// keeps its die for the whole job costs no parse beyond Execute's. On
// one worker the job parses its deck exactly once; on more, at most
// once per worker.
func TestMCParsesDeckOncePerDie(t *testing.T) {
	var parses atomic.Int64
	defer func(p func(string) (*netlist.Deck, error)) { parseDeck = p }(parseDeck)
	parseDeck = func(text string) (*netlist.Deck, error) {
		parses.Add(1)
		return netlist.Parse(text)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		parses.Store(0)
		s := &Spec{Analysis: KindMC, Netlist: inverterDeck, Seed: 9,
			MC: &MCParams{Trials: 300, Node: "out"}}
		s.ApplyDefaults()
		_, vals := executeValues(t, s)
		if got := valuesDigest(vals); got != "fc99c8cf14a3db9af7f368c2368d3f29a598cb03268ee704f840200e171a51c6" {
			t.Errorf("GOMAXPROCS=%d: values digest %s moved", procs, got)
		}
		n := parses.Load()
		if procs == 1 && n != 1 {
			t.Errorf("GOMAXPROCS=1: %d parses, want 1", n)
		}
		if n < 1 || n > int64(procs) {
			t.Errorf("GOMAXPROCS=%d: %d parses, want 1..%d", procs, n, procs)
		}
	}
}

// fig3Deck is the paper's Fig. 3 current reference (the mc_dense
// benchmark deck): a 4-unknown system on the dense LU.
const fig3Deck = `
* fig. 3 current reference, 180nm
.tech 180nm
VSUP rail 0 DC 1.8
RREF rail gate 30k
M1 gate gate 0 0 NMOS W=2u L=720n
M2 out gate 0 0 NMOS W=2u L=720n
RLOAD rail out 10k
CFILT gate 0 20p
.end
`

// TestWarmTrialZeroAllocs pins the whole warm Monte-Carlo trial, as
// executeMC runs it, to zero heap allocations: the in-place RNG split,
// DiePool.Get, mismatch sampling (free and corner-pinned), the operating
// point, the voltage read and Put. The Fig. 3 deck covers the dense LU and
// a 128-stage ladder the sparse one.
func TestWarmTrialZeroAllocs(t *testing.T) {
	ss, ok := variation.CornerByName("SS", 0.03, 0.05)
	if !ok {
		t.Fatal("no SS corner")
	}
	for _, tc := range []struct {
		name, deck, node string
		sparse           bool
		corner           variation.Corner
	}{
		{"fig3", fig3Deck, "out", false, variation.NominalCorner()},
		{"fig3-ss", fig3Deck, "out", false, ss},
		{"ladder128", ladderDeck(128), "n0127", true, variation.NominalCorner()},
	} {
		deck, err := netlist.Parse(tc.deck)
		if err != nil {
			t.Fatal(err)
		}
		pool := &variation.DiePool{Build: parsedFirst(deck, deckBuilder(tc.deck, nil))}
		pool.WarmStart()
		die, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		if die.Circuit.UsingSparse() != tc.sparse {
			t.Fatalf("%s: sparse backend %v, want %v", tc.name, die.Circuit.UsingSparse(), tc.sparse)
		}
		pool.Put(die)

		trial := voltageTrial(pool, deck.Tech, tc.corner, tc.node)
		root := mathx.NewRNG(11)
		var rng mathx.RNG
		g := 0
		run := func() {
			root.SplitInto(&rng, uint64(g))
			if _, err := trial(&rng, g); err != nil {
				t.Fatalf("%s: trial %d: %v", tc.name, g, err)
			}
			g++
		}
		run() // warm: the die's first mismatch solve
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("%s: a warm trial allocates %.1f times, want 0", tc.name, allocs)
		}
	}
}
