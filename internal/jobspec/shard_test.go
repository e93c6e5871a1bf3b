package jobspec

import (
	"context"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/mathx"
	"repro/internal/variation"
)

// mcShardSpec builds a defaults-applied MC spec on the shared inverter
// deck with a yield window, the shape every test here starts from.
func mcShardSpec(trials, shards int) *Spec {
	s := &Spec{
		Analysis: KindMC, Netlist: inverterDeck, Seed: 9,
		MC: &MCParams{Trials: trials, Node: "out", Lo: ptr(0.0), Hi: ptr(0.7), Shards: shards},
	}
	s.ApplyDefaults()
	return s
}

func TestShardKnobsHashSemantics(t *testing.T) {
	base := mcShardSpec(96, 0)
	// Shards is an execution knob: any fan-out computes the same result,
	// so it must not perturb the cache key.
	sharded := mcShardSpec(96, 4)
	if base.CanonicalHash() != sharded.CanonicalHash() {
		t.Error("mc.shards leaked into the canonical hash")
	}
	// Range is different work — a sub-slice of the campaign — and must
	// produce a different key than the full campaign.
	ranged := mcShardSpec(96, 0)
	ranged.MC.Range = &TrialRange{From: 0, To: variation.ChunkSize(96)}
	if ranged.CanonicalHash() == base.CanonicalHash() {
		t.Error("mc.range did not change the canonical hash")
	}
}

func TestValidateShardAndRange(t *testing.T) {
	cs := variation.ChunkSize(96) // 24
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"negative shards", func(s *Spec) { s.MC.Shards = -1 }, "shards >= 0"},
		{"range plus shards", func(s *Spec) {
			s.MC.Shards = 2
			s.MC.Range = &TrialRange{From: 0, To: cs}
		}, "mutually exclusive"},
		{"range beyond trials", func(s *Spec) { s.MC.Range = &TrialRange{From: 0, To: 97} }, "outside"},
		{"inverted range", func(s *Spec) { s.MC.Range = &TrialRange{From: cs, To: cs} }, "outside"},
		{"misaligned range", func(s *Spec) { s.MC.Range = &TrialRange{From: 7, To: 96} }, "not aligned"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mcShardSpec(96, 0)
			tc.mut(s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
	ok := mcShardSpec(96, 0)
	ok.MC.Range = &TrialRange{From: cs, To: 2 * cs}
	if err := ok.Validate(); err != nil {
		t.Errorf("aligned range rejected: %v", err)
	}
}

// A trial-range sub-job must report its chunks (the scatter-gather
// currency).
func TestExecuteRangeSubJob(t *testing.T) {
	const trials = 96
	cs := variation.ChunkSize(trials)
	spec := mcShardSpec(trials, 0)
	spec.MC.Range = &TrialRange{From: cs, To: 3 * cs}
	res, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	mc := res.MC
	if mc == nil {
		t.Fatal("no mc outcome")
	}
	if mc.Requested != 2*cs || mc.Completed() != 2*cs {
		t.Errorf("requested %d completed %d, want %d", mc.Requested, mc.Completed(), 2*cs)
	}
	if len(mc.Chunks) != 2 {
		t.Fatalf("sub-job reported %d chunks, want 2", len(mc.Chunks))
	}
	for i, st := range mc.Chunks {
		if st.Chunk != 1+i {
			t.Errorf("chunk %d has index %d, want %d", i, st.Chunk, 1+i)
		}
	}
}

// k-shard execution (k in {1, 4, 16}) must reproduce the unsharded
// run's trial count, mean, std and yield bit-for-bit, and its quantiles
// within the sketch's documented rank-error bound.
func TestExecuteShardedMatchesSingleShard(t *testing.T) {
	const trials = 96
	ref, sorted := executeValues(t, mcShardSpec(trials, 0))
	if len(sorted) == 0 {
		t.Fatal("reference run produced no values")
	}
	sort.Float64s(sorted)

	for _, k := range []int{1, 4, 16} {
		res, err := Execute(context.Background(), mcShardSpec(trials, k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		mc := res.MC
		if mc.Stats == nil {
			t.Fatalf("k=%d: no stats", k)
		}
		if mc.Completed() != ref.MC.Completed() || mc.Cancelled != 0 {
			t.Errorf("k=%d: completed %d cancelled %d, want %d/0",
				k, mc.Completed(), mc.Cancelled, ref.MC.Completed())
		}
		if mc.Stats.Mean() != ref.MC.Stats.Mean() {
			t.Errorf("k=%d: mean %v != %v (not bit-identical)", k, mc.Stats.Mean(), ref.MC.Stats.Mean())
		}
		if mc.Stats.StdDev() != ref.MC.Stats.StdDev() {
			t.Errorf("k=%d: std %v != %v (not bit-identical)", k, mc.Stats.StdDev(), ref.MC.Stats.StdDev())
		}
		if mc.Yield == nil || ref.MC.Yield == nil || *mc.Yield != *ref.MC.Yield {
			t.Errorf("k=%d: yield %v != %v", k, mc.Yield, ref.MC.Yield)
		}
		for _, p := range []float64{0.05, 0.5, 0.95} {
			est := mc.Stats.Quantile(p)
			i := sort.SearchFloat64s(sorted, est)
			if e := math.Abs(float64(i)/float64(len(sorted)) - p); e > 2.0/mathx.DefaultSketchCompression {
				t.Errorf("k=%d p=%g: rank error %.4f over bound", k, p, e)
			}
		}
	}
}

// Checkpoints journaled from an interrupted run, handed back through
// Options.Resume, must skip exactly the covered chunks and reproduce
// the uninterrupted moments bit-for-bit.
func TestExecuteCheckpointResume(t *testing.T) {
	const trials = 96
	nc := variation.NumChunks(trials)

	var ckpts []json.RawMessage
	full, err := ExecuteOpts(context.Background(), mcShardSpec(trials, 0), Options{
		OnCheckpoint: func(cp Checkpoint) { ckpts = append(ckpts, cp.Data) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) != nc {
		t.Fatalf("journaled %d checkpoints, want %d", len(ckpts), nc)
	}

	for _, m := range []int{1, nc - 1, nc} {
		var reran []Checkpoint
		res, err := ExecuteOpts(context.Background(), mcShardSpec(trials, 0), Options{
			Resume:       ckpts[:m],
			OnCheckpoint: func(cp Checkpoint) { reran = append(reran, cp) },
		})
		if err != nil {
			t.Fatalf("resume m=%d: %v", m, err)
		}
		mc := res.MC
		if mc.Resumed != m || len(reran) != nc-m {
			t.Fatalf("m=%d: resumed %d, re-ran %d chunks (want %d, %d)", m, mc.Resumed, len(reran), m, nc-m)
		}
		if mc.Completed() != full.MC.Completed() {
			t.Fatalf("m=%d: completed %d != %d", m, mc.Completed(), full.MC.Completed())
		}
		if mc.Stats.Moments != full.MC.Stats.Moments {
			t.Fatalf("m=%d: moments %+v != %+v (not bit-identical)", m, mc.Stats.Moments, full.MC.Stats.Moments)
		}
	}

	// A checkpoint from a different campaign grid must fail the run
	// loudly, never merge wrong statistics.
	foreign := mcShardSpec(400, 0) // ChunkSize(400)=100: chunk 0 is [0,100), not [0,24)
	if _, err := ExecuteOpts(context.Background(), foreign, Options{Resume: ckpts[:1]}); err == nil {
		t.Fatal("foreign checkpoint accepted")
	}
	if _, err := ExecuteOpts(context.Background(), mcShardSpec(trials, 0), Options{
		Resume: []json.RawMessage{json.RawMessage(`{broken`)},
	}); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// The sharded path must dispatch each shard's sub-spec through the
// RunShard hook (the server's peer-dispatch seam), resume-skip fully
// checkpointed shards, and checkpoint newly computed chunks.
func TestExecuteShardedRunShardHook(t *testing.T) {
	const trials = 96
	nc := variation.NumChunks(trials)
	cs := variation.ChunkSize(trials)

	var mu sync.Mutex
	var dispatched []TrialRange
	var ckpts []json.RawMessage
	res, err := ExecuteOpts(context.Background(), mcShardSpec(trials, 4), Options{
		OnCheckpoint: func(cp Checkpoint) {
			mu.Lock()
			ckpts = append(ckpts, cp.Data)
			mu.Unlock()
		},
		RunShard: func(ctx context.Context, shard int, sub *Spec) (*Result, error) {
			mu.Lock()
			dispatched = append(dispatched, *sub.MC.Range)
			mu.Unlock()
			if sub.MC.Shards != 0 {
				t.Errorf("shard %d sub-spec still sharded (%d)", shard, sub.MC.Shards)
			}
			if sub.MC.Trials != trials {
				t.Errorf("shard %d sub-spec trials %d, want the campaign total %d", shard, sub.MC.Trials, trials)
			}
			return ExecuteOpts(ctx, sub, Options{})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dispatched) != 4 || len(ckpts) != nc {
		t.Fatalf("dispatched %d shards, journaled %d checkpoints (want 4, %d)", len(dispatched), len(ckpts), nc)
	}
	covered := 0
	for _, r := range dispatched {
		covered += r.To - r.From
	}
	if covered != trials {
		t.Errorf("shard ranges cover %d trials, want %d", covered, trials)
	}
	if res.MC.Shards != 4 || res.MC.Completed() != trials {
		t.Errorf("shards %d completed %d, want 4/%d", res.MC.Shards, res.MC.Completed(), trials)
	}

	// Resuming the sharded run from shard 0's checkpoint must skip that
	// shard entirely: the hook never sees its range again. Sharded
	// checkpoints arrive in shard-completion order, so find chunk 0's.
	var chunk0 json.RawMessage
	for _, b := range ckpts {
		var st variation.ChunkStat
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st.Chunk == 0 {
			chunk0 = b
		}
	}
	if chunk0 == nil {
		t.Fatal("no checkpoint for chunk 0")
	}
	dispatched = nil
	res2, err := ExecuteOpts(context.Background(), mcShardSpec(trials, 4), Options{
		Resume: []json.RawMessage{chunk0}, // chunk 0 == shard 0's whole range (nc == k)
		RunShard: func(ctx context.Context, _ int, sub *Spec) (*Result, error) {
			mu.Lock()
			dispatched = append(dispatched, *sub.MC.Range)
			mu.Unlock()
			return ExecuteOpts(ctx, sub, Options{})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dispatched) != 3 {
		t.Fatalf("resume dispatched %d shards, want 3", len(dispatched))
	}
	for _, r := range dispatched {
		if r.From == 0 {
			t.Errorf("resumed shard [0,%d) was re-dispatched", cs)
		}
	}
	if res2.MC.Resumed != 1 || res2.MC.Completed() != trials {
		t.Errorf("resumed %d completed %d, want 1/%d", res2.MC.Resumed, res2.MC.Completed(), trials)
	}
	if res.MC.Stats.Moments != res2.MC.Stats.Moments {
		t.Errorf("resumed sharded moments differ: %+v != %+v", res2.MC.Stats.Moments, res.MC.Stats.Moments)
	}
}

// maskedMC is r's JSON without what says how the run went rather than
// what it found: the wall times, the shard fan-out and the resumed
// chunk count.
func maskedMC(t *testing.T, r *Result) string {
	t.Helper()
	c, mc := *r, *r.MC
	c.Elapsed, mc.Elapsed, mc.Shards, mc.Resumed = 0, 0, 0, 0
	c.MC = &mc
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// An MC result has one shape: apart from wall times, shards and resumed,
// its JSON is byte-identical unsharded, at 1 and 4 shards, and resumed
// from checkpointed chunks.
func TestMCResultSameAnySplit(t *testing.T) {
	const trials = 96
	var ckpts []json.RawMessage
	ref, err := ExecuteOpts(context.Background(), mcShardSpec(trials, 0), Options{
		OnCheckpoint: func(cp Checkpoint) { ckpts = append(ckpts, cp.Data) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := maskedMC(t, ref)
	for _, k := range []int{1, 4} {
		res, err := Execute(context.Background(), mcShardSpec(trials, k))
		if err != nil {
			t.Fatal(err)
		}
		if got := maskedMC(t, res); got != want {
			t.Errorf("%d shards:\n%s\nunsharded:\n%s", k, got, want)
		}
	}
	res, err := ExecuteOpts(context.Background(), mcShardSpec(trials, 0), Options{Resume: ckpts[:2]})
	if err != nil {
		t.Fatal(err)
	}
	if res.MC.Resumed != 2 {
		t.Fatalf("resumed %d chunks, want 2", res.MC.Resumed)
	}
	if got := maskedMC(t, res); got != want {
		t.Errorf("resumed:\n%s\nuninterrupted:\n%s", got, want)
	}
}
