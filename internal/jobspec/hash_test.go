package jobspec

import (
	"context"
	"testing"
)

func TestCanonicalHash(t *testing.T) {
	base := func() *Spec {
		s := &Spec{Analysis: KindMC, Netlist: inverterDeck, Seed: 3,
			MC: &MCParams{Trials: 10, Node: "out"}}
		s.ApplyDefaults()
		return s
	}
	a, b := base(), base()
	if a.CanonicalHash() != b.CanonicalHash() {
		t.Fatal("identical specs hash differently")
	}
	if h := a.CanonicalHash(); len(h) != 64 {
		t.Errorf("hash %q is not hex SHA-256", h)
	}

	// Any analysis-relevant field change moves the hash.
	seed := base()
	seed.Seed = 4
	if seed.CanonicalHash() == a.CanonicalHash() {
		t.Error("seed change did not change the hash")
	}
	deck := base()
	deck.Netlist += "\n* trailing comment"
	if deck.CanonicalHash() == a.CanonicalHash() {
		t.Error("netlist change did not change the hash")
	}
	trials := base()
	trials.MC.Trials = 11
	if trials.CanonicalHash() == a.CanonicalHash() {
		t.Error("trial-count change did not change the hash")
	}

	// no_cache is a delivery preference, not an input: it is excluded so
	// an opted-out run still produces the entry an opted-in resubmission
	// of the same work would look up.
	opted := base()
	opted.NoCache = true
	if opted.CanonicalHash() != a.CanonicalHash() {
		t.Error("no_cache leaked into the canonical hash")
	}

	// A sparse spec after defaulting is the same work as the explicit
	// form, so the two must collide on purpose.
	sparse := &Spec{Analysis: KindMC, Netlist: inverterDeck,
		MC: &MCParams{Trials: 10, Node: "out"}}
	sparse.ApplyDefaults()
	explicit := base()
	explicit.Seed = 1
	if sparse.CanonicalHash() != explicit.CanonicalHash() {
		t.Error("defaults-applied sparse spec does not hash like its explicit equivalent")
	}
}

func TestResultEchoesEffectiveSeed(t *testing.T) {
	// A sparse spec leaves Seed 0; ApplyDefaults rewrites it to 1 and the
	// result must echo that effective value, or a client could never
	// learn what to resubmit for a reproducible re-run.
	spec := &Spec{Analysis: KindMC, Netlist: inverterDeck,
		MC: &MCParams{Trials: 4, Node: "out"}}
	spec.ApplyDefaults()
	if spec.Seed != 1 {
		t.Fatalf("ApplyDefaults seed = %d, want 1", spec.Seed)
	}
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != 1 {
		t.Errorf("result seed = %d, want the effective 1", res.Seed)
	}

	expl := &Spec{Analysis: KindMC, Netlist: inverterDeck, Seed: 42,
		MC: &MCParams{Trials: 4, Node: "out"}}
	expl.ApplyDefaults()
	res2, err := Execute(context.Background(), expl)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Seed != 42 {
		t.Errorf("result seed = %d, want the explicit 42", res2.Seed)
	}
}

// sparseSpecs returns one sparse, valid-after-defaulting spec per
// analysis kind on deck, spec windows set where the kind has one.
func sparseSpecs(deck string) map[Kind]*Spec {
	return map[Kind]*Spec{
		KindOP:        {Analysis: KindOP, Netlist: deck, Record: []string{"out"}},
		KindTran:      {Analysis: KindTran, Netlist: deck},
		KindSweep:     {Analysis: KindSweep, Netlist: deck, Sweep: &SweepParams{Source: "VIN"}},
		KindAC:        {Analysis: KindAC, Netlist: deck, AC: &ACParams{Source: "VIN"}},
		KindAge:       {Analysis: KindAge, Netlist: deck},
		KindMC:        {Analysis: KindMC, Netlist: deck, MC: &MCParams{Node: "out", Lo: ptr(0.2), Hi: ptr(0.9)}},
		KindCorners:   {Analysis: KindCorners, Netlist: deck, Corners: &CornersParams{Node: "out", Lo: ptr(0.2)}},
		KindCentering: {Analysis: KindCentering, Netlist: deck, Centering: &CenteringParams{Node: "out", Hi: ptr(0.9)}},
		KindSignoff:   {Analysis: KindSignoff, Netlist: deck, Signoff: &SignoffParams{Node: "out", Lo: ptr(0.2), Hi: ptr(0.9)}},
	}
}

// TestCanonicalHashPins pins the content address of one defaulted spec
// per analysis kind, spec windows set where the kind has one. The hash
// keys every journaled result, so any change to the JSON encoding of
// Spec — a renamed tag, a reordered or re-nested field — orphans the
// whole result cache and must show up here first.
func TestCanonicalHashPins(t *testing.T) {
	specs := sparseSpecs(inverterDeck)
	want := map[Kind]string{
		KindOP:        "dbeaf34ed1051d176f60e1db716ca1bf2ca6b28e6e68ad84cd6f6af63077b28f",
		KindTran:      "3be571650a97a397cc0e787b6fa677f396703fe5a3776e9e98659c3a0b305b9e",
		KindSweep:     "34d7471d6ff9a3821de8afb7cbff9fe80d54b0fcdbc45a3f2f7b219855fbc0b8",
		KindAC:        "8ccbf0f60563631ad285999a5da552d30f9613705125c5800a5a0a28889af200",
		KindAge:       "255e03b55ddbd70d90113fbce02d6c80ae8426c5623a29eaca5c48405d4f042a",
		KindMC:        "bc6ddafee51124018e88ea21a986a79f7af19b9c363230ec7ed81568fd1dffc5",
		KindCorners:   "66e3ad00bcf774f3e99179f7bd0bce0e7179713e6bb967a1ef999deed73cc40a",
		KindCentering: "e8b95fed5d072c0ef013a0d98fc1a5a7b19c85449d34ef7ffdbc31d4c0fcdfd3",
		KindSignoff:   "912ec401c6024e9920087b97b4d1a5986dbc3b4c290c4ac537075d28c6b328f4",
	}
	for _, k := range Kinds() {
		s := specs[k]
		if s == nil {
			t.Errorf("no pinned spec for kind %s", k)
			continue
		}
		s.ApplyDefaults()
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: pinned spec invalid: %v", k, err)
		}
		if got := s.CanonicalHash(); got != want[k] {
			t.Errorf("%s: CanonicalHash = %s, want %s", k, got, want[k])
		}
	}
}
