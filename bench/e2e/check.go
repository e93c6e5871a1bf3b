package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/jobspec"
)

// verify is the correctness gate, run outside the timed window: every
// sampled result must equal a direct jobspec.Execute of the same spec.
// MC moments, counts and yield must be bit-identical (for a sharded
// campaign, against the unsharded run); a signoff report must be equal
// apart from its provenance cache/resume flags; an operating point must
// be equal outright. It returns one message per mismatch.
func verify(ctx context.Context, w *workload, samples []sample) []string {
	var bad []string
	for _, smp := range samples {
		spec := w.spec(smp.seed)
		if spec.MC != nil {
			spec.MC.Shards = 0
		}
		spec.ApplyDefaults()
		want, err := jobspec.Execute(ctx, spec)
		if err != nil {
			bad = append(bad, fmt.Sprintf("seed %d: reference execution failed: %v", smp.seed, err))
			continue
		}
		got := new(jobspec.Result)
		if err := json.Unmarshal(smp.result, got); err != nil {
			bad = append(bad, fmt.Sprintf("seed %d: result does not decode: %v", smp.seed, err))
			continue
		}
		if got.Partial {
			bad = append(bad, fmt.Sprintf("seed %d: served result is partial: %s", smp.seed, got.Warning))
			continue
		}
		g, err1 := essence(got)
		r, err2 := essence(want)
		if err := errors.Join(err1, err2); err != nil {
			bad = append(bad, fmt.Sprintf("seed %d: %v", smp.seed, err))
			continue
		}
		if !bytes.Equal(g, r) {
			bad = append(bad, fmt.Sprintf("seed %d: served %s result differs from direct execution:\n  served %s\n  direct %s",
				smp.seed, got.Kind, clip(g), clip(r)))
		}
	}
	return bad
}

// essence encodes the part of a result that must match exactly.
func essence(r *jobspec.Result) ([]byte, error) {
	switch {
	case r.MC != nil:
		if r.MC.Stats == nil {
			return nil, fmt.Errorf("mc result without stats")
		}
		return json.Marshal(struct {
			Kind                                 jobspec.Kind
			Requested, Failures, NaNs, Cancelled int
			Moments                              any
			Pass                                 int
			Yield                                any
		}{r.Kind, r.MC.Requested, r.MC.Failures, r.MC.NaNs, r.MC.Cancelled,
			r.MC.Stats.Moments, r.MC.Stats.Pass, r.MC.Yield})
	case r.Signoff != nil:
		rep := *r.Signoff
		rep.Provenance = append(rep.Provenance[:0:0], rep.Provenance...)
		for i := range rep.Provenance {
			rep.Provenance[i].Cached, rep.Provenance[i].Resumed = false, false
		}
		return json.Marshal(rep)
	case r.OP != nil:
		return json.Marshal(r.OP)
	}
	return nil, fmt.Errorf("result of kind %q has no block to compare", r.Kind)
}

func clip(b []byte) string {
	const max = 300
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}
