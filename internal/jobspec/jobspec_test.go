package jobspec

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

const inverterDeck = `
* cmos inverter at 90nm
.tech 90nm
.temp 300
VDD vdd 0 DC 1.1
VIN in 0 DC 0.55
MN out in 0 0 NMOS W=1u L=90n
MP out in vdd vdd PMOS W=2u L=90n
.end
`

func TestDurationJSONRoundTrip(t *testing.T) {
	d := Duration(90 * time.Second)
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Errorf("marshal = %s, want \"1m30s\"", b)
	}
	var back Duration
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != d {
		t.Errorf("round trip = %v, want %v", back, d)
	}
	// A naive client sends integer nanoseconds; accept those too.
	if err := json.Unmarshal([]byte("1500000000"), &back); err != nil {
		t.Fatal(err)
	}
	if back != Duration(1500*time.Millisecond) {
		t.Errorf("ns decode = %v", back)
	}
	if err := json.Unmarshal([]byte(`"ten minutes"`), &back); err == nil {
		t.Error("bad duration string accepted")
	}
	if err := json.Unmarshal([]byte("[]"), &back); err == nil {
		t.Error("non-scalar duration accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"missing netlist", Spec{Analysis: KindOP}, "needs a netlist"},
		{"future version", Spec{Version: SpecVersion + 1, Analysis: KindOP, Netlist: "x"}, "unsupported spec version"},
		{"negative timeout", Spec{Analysis: KindOP, Netlist: "x", Timeout: -1}, "negative timeout"},
		{"tran no params", Spec{Analysis: KindTran, Netlist: "x"}, "tran needs"},
		{"sweep one point", Spec{Analysis: KindSweep, Netlist: "x", Sweep: &SweepParams{Source: "V1", Points: 1}}, "points >= 2"},
		{"ac inverted band", Spec{Analysis: KindAC, Netlist: "x", AC: &ACParams{Source: "V1", FStart: 1e6, FStop: 1e3, Points: 5}}, "fstart < fstop"},
		{"age zero years", Spec{Analysis: KindAge, Netlist: "x", Age: &AgeParams{TempK: 350, Checkpoints: 4}}, "age needs"},
		{"mc no node", Spec{Analysis: KindMC, Netlist: "x", MC: &MCParams{Trials: 10}}, "mc needs a node"},
		{"mc inverted spec", Spec{Analysis: KindMC, Netlist: "x", MC: &MCParams{Trials: 10, Node: "out", Lo: ptr(0.9), Hi: ptr(0.1)}}, "lo 0.9 above hi 0.1"},
		{"corners no node", Spec{Analysis: KindCorners, Netlist: "x", Corners: &CornersParams{}}, "corners needs a node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestValidateUnknownAnalysisIsTyped(t *testing.T) {
	spec := Spec{Analysis: "bogus", Netlist: "x"}
	err := spec.Validate()
	var unknown *ErrUnknownAnalysis
	if !errors.As(err, &unknown) {
		t.Fatalf("Validate() = %v, want *ErrUnknownAnalysis", err)
	}
	if unknown.Kind != "bogus" {
		t.Errorf("Kind = %q", unknown.Kind)
	}
	// The CLI prints this message as its usage hint: it must list the
	// valid kinds.
	for _, k := range Kinds() {
		if !strings.Contains(err.Error(), string(k)) {
			t.Errorf("error %q does not mention kind %q", err, k)
		}
	}
}

func TestApplyDefaultsFillsAndStaysIdempotent(t *testing.T) {
	s := &Spec{Analysis: KindMC, Netlist: "x"}
	s.ApplyDefaults()
	if s.Version != SpecVersion || s.Seed != 1 {
		t.Errorf("version/seed = %d/%d", s.Version, s.Seed)
	}
	if s.MC == nil || s.MC.Trials != 200 {
		t.Fatalf("mc defaults = %+v", s.MC)
	}
	// Idempotent, and explicit values survive.
	s.MC.Trials = 7
	s.MC.Node = "out"
	s.Seed = 42
	before := *s
	s.ApplyDefaults()
	if !reflect.DeepEqual(before, *s) {
		t.Errorf("second ApplyDefaults changed the spec: %+v -> %+v", before, *s)
	}
}

func TestApplyDefaultsEveryKindValidates(t *testing.T) {
	for _, k := range Kinds() {
		s := &Spec{Analysis: k, Netlist: "x"}
		s.ApplyDefaults()
		// Sweep/AC/MC/Corners need a source or node no default can
		// invent; centering and signoff additionally need a spec bound.
		switch k {
		case KindSweep:
			s.Sweep.Source = "V1"
		case KindAC:
			s.AC.Source = "V1"
		case KindMC:
			s.MC.Node = "out"
		case KindCorners:
			s.Corners.Node = "out"
		case KindCentering:
			s.Centering.Node = "out"
			s.Centering.Lo = ptr(0.4)
		case KindSignoff:
			s.Signoff.Node = "out"
			s.Signoff.Lo = ptr(0.4)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: defaulted spec invalid: %v", k, err)
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	in := &Spec{
		Version:  SpecVersion,
		Analysis: KindMC,
		Netlist:  inverterDeck,
		Seed:     11,
		Timeout:  Duration(30 * time.Second),
		MC:       &MCParams{Trials: 50, Node: "out", Lo: ptr(0.4), Hi: ptr(0.8)},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	// The wire format keeps the timeout human-readable.
	if !strings.Contains(string(b), `"timeout": "30s"`) && !strings.Contains(string(b), `"timeout":"30s"`) {
		t.Errorf("timeout not a duration string: %s", b)
	}
	out := new(Spec)
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestMCParamsSpecBounds(t *testing.T) {
	if (&MCParams{}).Window().HasSpec() {
		t.Error("unbounded params claim a spec")
	}
	w := (&MCParams{Lo: ptr(0.4)}).Window()
	if !w.HasSpec() {
		t.Error("one-sided spec not detected")
	}
	if got := w.SpecLo(); got != 0.4 {
		t.Errorf("SpecLo = %g", got)
	}
	if hi := w.SpecHi(); !(hi > 1e308) {
		t.Errorf("unset SpecHi = %g, want +Inf", hi)
	}
}

func TestExecuteOP(t *testing.T) {
	res, err := Execute(context.Background(), &Spec{
		Analysis: KindOP, Netlist: inverterDeck, Record: []string{"out"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindOP || res.OP == nil {
		t.Fatalf("result = %+v", res)
	}
	if len(res.OP.Nodes) != 1 || res.OP.Nodes[0].Node != "out" {
		t.Fatalf("nodes = %+v", res.OP.Nodes)
	}
	v := res.OP.Nodes[0].V
	if v <= 0 || v >= 1.1 {
		t.Errorf("V(out) = %g, want inside the rails", v)
	}
	if len(res.OP.Devices) != 2 {
		t.Errorf("devices = %+v", res.OP.Devices)
	}
}

func TestExecuteValidatesFirst(t *testing.T) {
	_, err := Execute(context.Background(), &Spec{Analysis: "bogus", Netlist: "x"})
	var unknown *ErrUnknownAnalysis
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want validation failure", err)
	}
	if _, err := Execute(context.Background(), nil); err == nil {
		t.Error("nil spec accepted")
	}
}

func TestExecuteMCProgressOrdering(t *testing.T) {
	const trials = 24
	var samples []Progress
	res, err := ExecuteOpts(context.Background(), &Spec{
		Analysis: KindMC, Netlist: inverterDeck, Seed: 1,
		MC: &MCParams{Trials: trials, Node: "out", Lo: ptr(0.0), Hi: ptr(1.1)},
	}, Options{
		ProgressEvery: 1,
		OnProgress:    func(p Progress) { samples = append(samples, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	mc := res.MC
	if mc.Requested != trials {
		t.Errorf("requested = %d", mc.Requested)
	}
	if got := int(mc.Stats.Moments.Count) + mc.Failures + mc.NaNs + mc.Cancelled; got != trials {
		t.Errorf("accounting: %d values + %d failed + %d NaN + %d cancelled != %d",
			mc.Stats.Moments.Count, mc.Failures, mc.NaNs, mc.Cancelled, trials)
	}
	if mc.Yield == nil {
		t.Error("spec bounds set but no yield estimate")
	}
	// Trials complete concurrently, yet the meter serializes emission:
	// every sample arrives, in order, Done = 1..trials.
	if len(samples) != trials {
		t.Fatalf("got %d progress samples, want %d", len(samples), trials)
	}
	for i, p := range samples {
		if p.Stage != "trial" || p.Done != i+1 || p.Total != trials {
			t.Fatalf("sample %d = %+v", i, p)
		}
	}
}

func TestExecuteMCCancelledIsExactlyAccounted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const trials = 100000
	// Cancel as soon as the first trial lands, so most of the run never
	// dispatches — the accounting must still balance to the trial.
	var once sync.Once
	res, err := ExecuteOpts(ctx, &Spec{
		Analysis: KindMC, Netlist: inverterDeck, Seed: 1,
		MC: &MCParams{Trials: trials, Node: "out"},
	}, Options{
		ProgressEvery: 1,
		OnProgress:    func(Progress) { once.Do(cancel) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("cancelled run not marked partial")
	}
	mc := res.MC
	if mc.Cancelled == 0 {
		t.Error("no trials recorded as cancelled")
	}
	if got := int(mc.Stats.Moments.Count) + mc.Failures + mc.NaNs + mc.Cancelled; got != trials {
		t.Errorf("accounting: %d + %d + %d + %d != %d",
			mc.Stats.Moments.Count, mc.Failures, mc.NaNs, mc.Cancelled, trials)
	}
}

func TestExecuteAgeCancelledReturnsPartial(t *testing.T) {
	// Cancel after the first checkpoint solves: the trajectory computed so
	// far must come back marked partial, not be discarded.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	res, err := ExecuteOpts(ctx, &Spec{
		Analysis: KindAge, Netlist: inverterDeck, Seed: 1,
		Age: &AgeParams{Years: 10, TempK: 350, Checkpoints: 40},
	}, Options{
		ProgressEvery: 1,
		OnProgress:    func(Progress) { once.Do(cancel) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatalf("expected a partial result, got %d checkpoints complete", len(res.Age.Checkpoints))
	}
	if n := len(res.Age.Checkpoints); n == 0 || n >= 40 {
		t.Errorf("partial run has %d checkpoints, want 0 < n < 40", n)
	}
	if len(res.Age.Nodes) == 0 {
		t.Error("partial age result lost its node order")
	}
}

func ptr(v float64) *float64 { return &v }
