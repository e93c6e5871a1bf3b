package jobspec

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/report/signoff"
)

// cornersSpec builds a judged corner-sweep spec over the shared inverter.
func cornersSpec(lo, hi *float64) *Spec {
	s := &Spec{
		Analysis: KindCorners, Netlist: inverterDeck,
		Corners: &CornersParams{Node: "out", Lo: lo, Hi: hi},
	}
	s.ApplyDefaults()
	return s
}

func TestExecuteCornersJudgedWindow(t *testing.T) {
	res, err := Execute(context.Background(), cornersSpec(ptr(0.0), ptr(1.1)))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Corners
	if c == nil {
		t.Fatal("no corners result")
	}
	if len(c.Corners) != 5 {
		t.Fatalf("%d corners, want the 5 classic ones", len(c.Corners))
	}
	if c.Worst == "" {
		t.Error("no worst corner identified")
	}
	allPass := true
	for _, cv := range c.Corners {
		if cv.Pass == nil || cv.Margin == nil {
			t.Fatalf("corner %s unjudged despite a spec window", cv.Name)
		}
		if *cv.Pass != (*cv.Margin >= 0) {
			t.Errorf("corner %s: pass=%v inconsistent with margin=%g", cv.Name, *cv.Pass, *cv.Margin)
		}
		allPass = allPass && *cv.Pass
	}
	if c.Pass != allPass {
		t.Errorf("sweep pass=%v, corners say %v", c.Pass, allPass)
	}
	// The rail-to-rail window must pass everywhere; a window the inverter
	// output can never reach must fail everywhere and pick the same worst
	// corner story with negative margins.
	tight, err := Execute(context.Background(), cornersSpec(ptr(2.0), nil))
	if err != nil {
		t.Fatal(err)
	}
	if tight.Corners.Pass {
		t.Error("a 2 V lower bound passed on a 1.1 V supply")
	}
	for _, cv := range tight.Corners.Corners {
		if cv.Margin != nil && *cv.Margin >= 0 {
			t.Errorf("corner %s has non-negative margin %g against an unreachable window", cv.Name, *cv.Margin)
		}
	}
}

// TestExecuteMCPinnedAtCorner checks that MCParams.Corner actually moves
// the campaign: the same seed at SS and FF must land on different means
// (the global shift is deterministic per polarity), and the pin must be
// part of the canonical hash — MC at SS is different work than at TT.
func TestExecuteMCPinnedAtCorner(t *testing.T) {
	mc := func(corner *CornerShift) *Spec {
		s := &Spec{
			Analysis: KindMC, Netlist: inverterDeck, Seed: 11,
			MC: &MCParams{Trials: 32, Node: "out", Corner: corner},
		}
		s.ApplyDefaults()
		return s
	}
	nom, err := Execute(context.Background(), mc(nil))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Execute(context.Background(), mc(&CornerShift{Name: "SS"}))
	if err != nil {
		t.Fatal(err)
	}
	if nom.MC.Stats.Mean() == ss.MC.Stats.Mean() {
		t.Error("pinning to SS did not shift the campaign mean")
	}
	if mc(nil).CanonicalHash() == mc(&CornerShift{Name: "SS"}).CanonicalHash() {
		t.Error("corner pin absent from the canonical hash: SS and nominal would share a cache entry")
	}
}

// TestExecuteCenteringImprovesYield is the acceptance pin for the design-
// centering loop: against a window carved from the uncentered
// distribution, at least one sizing move must be found that measurably
// raises yield. The window is self-calibrated (mean ± 1σ of a plain MC
// run) so the test tracks the device models instead of hard-coding
// voltages; the matched group MN+MP keeps the inverter's ratio while
// widening both, which buys yield through the Pelgrom 1/√(WL) law.
func TestExecuteCenteringImprovesYield(t *testing.T) {
	probe := &Spec{
		Analysis: KindMC, Netlist: inverterDeck, Seed: 5,
		MC: &MCParams{Trials: 96, Node: "out"},
	}
	probe.ApplyDefaults()
	pr, err := Execute(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	mean, sd := pr.MC.Stats.Mean(), pr.MC.Stats.StdDev()
	if sd <= 0 {
		t.Fatalf("degenerate probe distribution: σ = %g", sd)
	}

	spec := &Spec{
		Analysis: KindCentering, Netlist: inverterDeck, Seed: 5,
		Centering: &CenteringParams{
			Node: "out", Lo: ptr(mean - sd), Hi: ptr(mean + sd),
			Trials: 96, MaxIters: 4, Devices: []string{"MN+MP"},
		},
	}
	spec.ApplyDefaults()
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Centering
	if c == nil {
		t.Fatal("no centering outcome")
	}
	if c.Final.Yield.Yield <= c.Baseline.Yield.Yield {
		t.Fatalf("centering found no improvement: %.1f%% -> %.1f%%",
			100*c.Baseline.Yield.Yield, 100*c.Final.Yield.Yield)
	}
	// The trajectory is monotone by construction (only improving moves
	// are accepted) and the sizing table must echo the accepted moves.
	prev := -1.0
	for _, p := range c.Trajectory {
		if p.Yield.Yield < prev {
			t.Fatalf("trajectory not monotone at iteration %d", p.Iteration)
		}
		prev = p.Yield.Yield
	}
	var moved bool
	for _, s := range c.Sizing {
		if s.Scale != 1 {
			moved = true
		}
	}
	if !moved {
		t.Error("yield improved but the sizing table reports every device untouched")
	}
}

func signoffSpec() *Spec {
	s := &Spec{
		Analysis: KindSignoff, Netlist: inverterDeck, Seed: 3,
		Signoff: &SignoffParams{Node: "out", Lo: ptr(0.0), Hi: ptr(1.1), Trials: 48},
	}
	s.ApplyDefaults()
	return s
}

func TestExecuteSignoffAssemblesReport(t *testing.T) {
	res, err := Execute(context.Background(), signoffSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("clean campaign marked partial: %s", res.Warning)
	}
	r := res.Signoff
	if r == nil {
		t.Fatal("no signoff report")
	}
	if r.SchemaVersion != 1 {
		t.Errorf("schema_version = %d, want 1", r.SchemaVersion)
	}
	if r.Corners == nil || r.Yield == nil || r.Aging == nil || r.Reliability == nil {
		t.Fatalf("missing section in a clean run: corners=%v yield=%v aging=%v rel=%v",
			r.Corners != nil, r.Yield != nil, r.Aging != nil, r.Reliability != nil)
	}
	if r.Yield.Corner != r.Corners.Worst {
		t.Errorf("MC pinned to %q, corner sweep says worst is %q", r.Yield.Corner, r.Corners.Worst)
	}
	if len(r.Provenance) != SignoffNodes {
		t.Fatalf("%d provenance records, want %d (one per DAG node)", len(r.Provenance), SignoffNodes)
	}
	for _, sj := range r.Provenance {
		if sj.Error != "" || sj.Skipped {
			t.Errorf("node %s not clean: %+v", sj.Name, sj)
		}
		if sj.Analysis != "" && sj.Hash == "" {
			t.Errorf("sub-job node %s carries no cache hash", sj.Name)
		}
	}
	if r.Pass && len(r.Violations) != 0 {
		t.Errorf("pass=true with violations %v", r.Violations)
	}
	// The report is the cacheable payload: it must round-trip JSON
	// byte-identically (no maps, no NaN — the determinism contract in
	// docs/REPORT_SCHEMA.md).
	b1, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("signoff result does not round-trip JSON byte-identically")
	}
}

// signoffOrder is the signoff graph's declaration order: the provenance
// order and the checkpoint Seq index space.
var signoffOrder = []string{"corners", "mc", "age", "wearout"}

// cleanSignoffSHA256 pins the JSON of signoffSpec's clean report.
const cleanSignoffSHA256 = "36f5897385c12fd1071f91aa4c4c1d91c4ce5c46bdf9b4c75a491f7cbfb7cbb1"

// TestSignoffSubJobFailureYieldsPartialReport injects failures into the
// signoff graph through the RunSub hook. The campaign must still deliver
// a structured report: intact sections for the nodes that completed, the
// failure named in both the violations and the provenance, flagged
// Partial rather than erroring out — and a campaign whose nodes all
// completed is not partial, even when its context is cancelled right
// after the last node (a partial report is never cached). Every case
// also checks the emission contract: progress Done runs 1..SignoffNodes
// from one goroutine at a time, and each checkpoint's Seq is its node's
// declaration index.
func TestSignoffSubJobFailureYieldsPartialReport(t *testing.T) {
	const incomplete = "signoff campaign incomplete: one or more sub-jobs failed"
	type node struct {
		err     string
		skipped bool
	}
	cases := []struct {
		name string
		// inject, when set, runs at the top of RunSub; a non-nil error
		// fails the named sub-job.
		inject func(name string, cancel context.CancelFunc) error
		// cancelAtDone, when positive, cancels the context from the
		// progress event with that Done count.
		cancelAtDone int
		want         map[string]node // unlisted nodes must be clean
		warning      string
	}{
		{name: "clean"},
		{
			name: "mc_fails",
			inject: func(name string, _ context.CancelFunc) error {
				if name == "mc" {
					return errors.New("engine knocked over")
				}
				return nil
			},
			want:    map[string]node{"mc": {err: "sub-job mc: engine knocked over"}},
			warning: incomplete,
		},
		{
			name: "corners_fails",
			inject: func(name string, _ context.CancelFunc) error {
				if name == "corners" {
					return errors.New("engine knocked over")
				}
				return nil
			},
			want: map[string]node{
				"corners": {err: "sub-job corners: engine knocked over"},
				"mc": {skipped: true,
					err: `campaign: node "mc" skipped: dependency "corners" failed: sub-job corners: engine knocked over`},
			},
			warning: incomplete,
		},
		{
			name: "age_panics",
			inject: func(name string, _ context.CancelFunc) error {
				if name == "age" {
					panic("aging model blew up")
				}
				return nil
			},
			want:    map[string]node{"age": {err: `campaign: node "age" panicked: aging model blew up`}},
			warning: incomplete,
		},
		{
			name: "cancel_in_corners",
			inject: func(name string, cancel context.CancelFunc) error {
				if name == "corners" {
					cancel()
				}
				return nil
			},
			want:    map[string]node{"mc": {skipped: true, err: `campaign: node "mc" skipped: context canceled`}},
			warning: context.Canceled.Error(),
		},
		{name: "cancel_after_last_node", cancelAtDone: SignoffNodes},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var (
				inFlight atomic.Int32
				dones    []int
				seqs     = map[string]int{}
			)
			res, err := ExecuteOpts(ctx, signoffSpec(), Options{
				// Sub-jobs run on a fresh context, so a cancellation
				// injected into one node cannot cut another short.
				RunSub: func(_ context.Context, name string, sub *Spec) (*Result, bool, error) {
					if tc.inject != nil {
						if err := tc.inject(name, cancel); err != nil {
							return nil, false, err
						}
					}
					r, err := ExecuteOpts(context.Background(), sub, Options{})
					return r, false, err
				},
				OnProgress: func(p Progress) {
					if inFlight.Add(1) != 1 {
						t.Error("concurrent progress calls")
					}
					defer inFlight.Add(-1)
					if p.Stage != "subjob" || p.Total != SignoffNodes {
						t.Errorf("progress %+v, want stage subjob of %d", p, SignoffNodes)
					}
					dones = append(dones, p.Done)
					if p.Done == tc.cancelAtDone {
						cancel()
					}
				},
				OnCheckpoint: func(cp Checkpoint) {
					if inFlight.Add(1) != 1 {
						t.Error("checkpoint concurrent with another emission")
					}
					defer inFlight.Add(-1)
					var sc subjobCheckpoint
					if err := json.Unmarshal(cp.Data, &sc); err != nil {
						t.Error(err)
						return
					}
					seqs[sc.Name] = cp.Seq
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(dones) != "[1 2 3 4]" {
				t.Errorf("progress Done sequence %v, want [1 2 3 4]", dones)
			}
			for i, name := range signoffOrder {
				seq, ok := seqs[name]
				if clean := tc.want[name] == (node{}); ok != clean {
					t.Errorf("node %s: checkpointed=%v, clean=%v", name, ok, clean)
				}
				if ok && seq != i {
					t.Errorf("node %s checkpointed at Seq %d, want declaration index %d", name, seq, i)
				}
			}

			partial := len(tc.want) > 0
			if res.Partial != partial || res.Warning != tc.warning {
				t.Errorf("partial=%v warning=%q, want partial=%v warning=%q", res.Partial, res.Warning, partial, tc.warning)
			}
			r := res.Signoff
			if r == nil {
				t.Fatal("no report despite the partial contract")
			}
			if partial && r.Pass {
				t.Error("report passed with an incomplete sub-job")
			}
			sections := map[string]bool{
				"corners": r.Corners != nil, "mc": r.Yield != nil,
				"age": r.Aging != nil, "wearout": r.Reliability != nil,
			}
			if len(r.Provenance) != len(signoffOrder) {
				t.Fatalf("%d provenance records, want %d", len(r.Provenance), len(signoffOrder))
			}
			for i, sj := range r.Provenance {
				want := tc.want[sj.Name]
				if sj.Name != signoffOrder[i] {
					t.Errorf("provenance[%d] = %s, want %s", i, sj.Name, signoffOrder[i])
				}
				if sj.Error != want.err || sj.Skipped != want.skipped {
					t.Errorf("node %s: error=%q skipped=%v, want error=%q skipped=%v",
						sj.Name, sj.Error, sj.Skipped, want.err, want.skipped)
				}
				if got := sections[sj.Name]; got != (want.err == "") {
					t.Errorf("node %s: section present=%v with error %q", sj.Name, got, sj.Error)
				}
				if want.err != "" && !slices.Contains(r.Violations, "sub-job "+sj.Name+" did not complete: "+want.err) {
					t.Errorf("violations %q do not name the failed node %s", r.Violations, sj.Name)
				}
			}
			if !partial {
				if sum := signoffSHA256(t, r); sum != cleanSignoffSHA256 {
					t.Errorf("clean report sha256 %s, want %s", sum, cleanSignoffSHA256)
				}
			}
		})
	}
}

func signoffSHA256(t *testing.T, r *signoff.Report) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestSignoffResumesFromSubjobCheckpoints replays the checkpoints of a
// completed campaign into a fresh execution: no sub-job may run again,
// and the report must mark every sub-job node as resumed.
func TestSignoffResumesFromSubjobCheckpoints(t *testing.T) {
	var cps []json.RawMessage
	first, err := ExecuteOpts(context.Background(), signoffSpec(), Options{
		OnCheckpoint: func(cp Checkpoint) {
			if cp.Stage != "subjob" {
				t.Errorf("unexpected checkpoint stage %q", cp.Stage)
			}
			cps = append(cps, cp.Data)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("campaign emitted no checkpoints")
	}

	second, err := ExecuteOpts(context.Background(), signoffSpec(), Options{
		Resume: cps,
		RunSub: func(_ context.Context, name string, _ *Spec) (*Result, bool, error) {
			t.Errorf("sub-job %s re-executed despite a checkpoint", name)
			return nil, false, errors.New("must not run")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sj := range second.Signoff.Provenance {
		if sj.Analysis == "" {
			continue // inline roll-up nodes recompute; they have no sub-job to skip
		}
		if !sj.Resumed {
			t.Errorf("node %s not marked resumed", sj.Name)
		}
	}
	// Resumed or not, the verdict is the same campaign.
	if second.Signoff.Pass != first.Signoff.Pass {
		t.Error("resumed campaign reached a different verdict")
	}

	// A checkpoint from a different campaign (the seed changed, so every
	// sub-spec hash changed) must refuse loudly instead of merging
	// foreign numbers: the affected nodes fail with a hash mismatch and
	// the report comes back partial.
	other := signoffSpec()
	other.Seed = 99
	foreign, err := ExecuteOpts(context.Background(), other, Options{Resume: cps})
	if err != nil {
		t.Fatal(err)
	}
	if !foreign.Partial {
		t.Fatal("foreign checkpoints merged silently across a spec change")
	}
	var mismatch bool
	for _, sj := range foreign.Signoff.Provenance {
		if strings.Contains(sj.Error, "does not match") {
			mismatch = true
		}
	}
	if !mismatch {
		t.Errorf("no provenance record names the hash mismatch: %+v", foreign.Signoff.Provenance)
	}
}
