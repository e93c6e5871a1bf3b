package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/jobspec"
	"repro/internal/variation"
)

// mcSpec is the spec `relsim -analysis mc -trials 400 -node out -lo 0.5
// -hi 0.6 -seed 7 -shards shards` builds on the OTA example deck.
func mcSpec(t *testing.T, shards int) *jobspec.Spec {
	t.Helper()
	text, err := os.ReadFile("../../examples/ota_reliability/ota.sp")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 0.5, 0.6
	spec := &jobspec.Spec{
		Version:  jobspec.SpecVersion,
		Analysis: jobspec.KindMC,
		Netlist:  string(text),
		Seed:     7,
		MC:       &jobspec.MCParams{Trials: 400, Node: "out", Shards: shards, Lo: &lo, Hi: &hi},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// renderMCText renders an MC result and returns its stdout and stderr.
func renderMCText(t *testing.T, spec *jobspec.Spec, res *jobspec.Result) (out, diag string) {
	t.Helper()
	var o, d bytes.Buffer
	if err := renderMC(&o, &d, spec, res); err != nil {
		t.Fatal(err)
	}
	return o.String(), d.String()
}

// TestRenderMCSameAnySplit renders one campaign unsharded, at 1 and 4
// shards, and resumed from checkpointed chunks: stdout is the same text
// every time, and only stderr says how the run was split.
func TestRenderMCSameAnySplit(t *testing.T) {
	var ckpts []json.RawMessage
	spec := mcSpec(t, 0)
	res, err := jobspec.ExecuteOpts(context.Background(), spec, jobspec.Options{
		OnCheckpoint: func(cp jobspec.Checkpoint) { ckpts = append(ckpts, cp.Data) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := renderMCText(t, spec, res)
	for _, line := range []string{"V(out) over 400 dies: mean ", "distribution (quantile sketch)", "p99", "yield for 0.5 <= V(out) <= 0.6: "} {
		if !strings.Contains(want, line) {
			t.Errorf("stdout lacks %q:\n%s", line, want)
		}
	}
	for _, shards := range []int{1, 4} {
		spec := mcSpec(t, shards)
		res, err := jobspec.Execute(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		out, diag := renderMCText(t, spec, res)
		if out != want {
			t.Errorf("%d shards print\n%s\nunsharded prints\n%s", shards, out, want)
		}
		if shards == 4 && !strings.Contains(diag, "scatter-gathered over 4 shards") {
			t.Errorf("4-shard stderr does not name the split:\n%s", diag)
		}
	}
	res, err = jobspec.ExecuteOpts(context.Background(), spec, jobspec.Options{Resume: ckpts[:3]})
	if err != nil {
		t.Fatal(err)
	}
	out, diag := renderMCText(t, spec, res)
	if out != want {
		t.Errorf("resumed run prints\n%s\nuninterrupted prints\n%s", out, want)
	}
	if !strings.Contains(diag, "resumed from 3 checkpointed chunk(s)") {
		t.Errorf("resumed stderr does not name the resume:\n%s", diag)
	}
}

// TestMCAccountingKindOrder renders the failure accounting of a run with
// two failure kinds many times: stderr is the same text every time, with
// the kinds in sorted order, though the tally is a map.
func TestMCAccountingKindOrder(t *testing.T) {
	stats := &variation.MCStats{Failures: 5, ByKind: map[string]int{"panic": 2, "convergence": 3}}
	stats.Moments.Add(1)
	mc := &jobspec.MCOutcome{
		Node: "out", Requested: 6, Failures: 5, Stats: stats,
		FailuresByKind: stats.ByKind, FirstFailure: "trial 0 [trial]: panic: boom",
	}
	var first bytes.Buffer
	printMCAccounting(&first, mc)
	want := first.String()
	conv := strings.Index(want, "  convergence failures: 3\n")
	pan := strings.Index(want, "  panic failures: 2\n")
	if conv < 0 || pan < 0 || conv > pan {
		t.Fatalf("failure kinds missing or out of order:\n%s", want)
	}
	for i := 0; i < 50; i++ {
		var d bytes.Buffer
		printMCAccounting(&d, mc)
		if d.String() != want {
			t.Fatalf("render %d differs:\n%s\nfirst render:\n%s", i, d.String(), want)
		}
	}
}
