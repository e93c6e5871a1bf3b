package variation

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/mathx"
)

// gaussTrial is a cheap deterministic stand-in for a die solve: one
// normal draw from the trial's private stream, with a NaN and a failure
// sprinkled in to exercise the accounting.
func gaussTrial(rng *mathx.RNG, i int) (float64, error) {
	if i == 13 {
		return 0, fmt.Errorf("synthetic failure")
	}
	if i == 29 {
		return math.NaN(), nil
	}
	return 0.6 + 0.05*rng.Norm(), nil
}

func TestChunkGridCoversTrials(t *testing.T) {
	for _, trials := range []int{1, 3, 4, 5, 255, 256, 257, 777, 1000, 4096} {
		cs := ChunkSize(trials)
		nc := NumChunks(trials)
		if cs < 1 || cs > 256 {
			t.Fatalf("trials=%d: chunk size %d", trials, cs)
		}
		covered := 0
		for i := 0; i < nc; i++ {
			from, to := ChunkRange(trials, i)
			if from != covered || to <= from {
				t.Fatalf("trials=%d chunk %d: range [%d,%d) after %d", trials, i, from, to, covered)
			}
			covered = to
		}
		if covered != trials {
			t.Fatalf("trials=%d: grid covers %d", trials, covered)
		}
	}
}

// sequentialFold evaluates trials [0, n) one after another on their
// Split substreams and folds them chunk by chunk in trial order: the
// reference a parallel campaign must reproduce. It also returns the
// successful values in trial order.
func sequentialFold(n int, seed uint64, trial Trial) (*MCStats, []float64) {
	root := mathx.NewRNG(seed)
	st := &MCStats{}
	var vals []float64
	for c := 0; c < NumChunks(n); c++ {
		var chunk MCStats
		from, to := ChunkRange(n, c)
		for i := from; i < to; i++ {
			v, err := trial(root.Split(uint64(i)), i)
			switch {
			case err != nil:
				chunk.addFailure(&TrialError{Index: i, Phase: "trial", Cause: err})
			case math.IsNaN(v):
				chunk.NaNs++
			default:
				chunk.addValue(v, false)
				vals = append(vals, v)
			}
		}
		st.Merge(&chunk)
	}
	return st, vals
}

// A full-range campaign must reproduce a sequential run of the same
// trials bit-for-bit: same per-trial RNG substreams, the same values
// folded in trial order, the same accounting.
func TestCampaignMatchesMonteCarlo(t *testing.T) {
	const n, seed = 600, 7
	want, vals := sequentialFold(n, seed, gaussTrial)
	camp := &Campaign{Trials: n, Seed: seed, Trial: gaussTrial}
	cr, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cr.Failures != want.Failures || cr.NaNs != want.NaNs || cr.Completed() != n {
		t.Fatalf("accounting: campaign (%d,%d,%d) vs sequential (%d,%d,%d)",
			cr.Failures, cr.NaNs, cr.Completed(), want.Failures, want.NaNs, n)
	}
	if !reflect.DeepEqual(cr.Stats, want) {
		t.Fatalf("campaign stats %+v, want the trial-order fold %+v", cr.Stats, want)
	}
	// Stats must agree with the value set they summarise (Welford vs
	// two-pass mean differ only in rounding).
	if got, want := cr.Stats.Mean(), mathx.Mean(vals); math.Abs(got-want) > 1e-12 {
		t.Fatalf("stats mean %g != values mean %g", got, want)
	}
	if int(cr.Stats.Moments.Count) != len(vals) {
		t.Fatalf("stats count %d != %d values", cr.Stats.Moments.Count, len(vals))
	}
}

// k-shard scatter-gather (k in {1, 4, 16}) must yield identical trial
// counts, bit-identical mean/std/pass, and quantiles within the sketch's
// rank-error bound versus the single-shard run.
func TestCampaignShardMergeBitIdentical(t *testing.T) {
	const trials, seed = 1024, 11
	spec := &Spec{Name: "v", Lo: 0.5, Hi: 0.7}
	full := &Campaign{Trials: trials, Seed: seed, Trial: gaussTrial, Spec: spec}
	ref, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, sorted := sequentialFold(trials, seed, gaussTrial)
	sort.Float64s(sorted)

	nc := NumChunks(trials)
	cs := ChunkSize(trials)
	for _, k := range []int{1, 4, 16} {
		shards := k
		if shards > nc {
			shards = nc
		}
		// One chunk-stat list per shard, gathered then folded in global
		// chunk order — exactly what the jobspec scatter-gather does.
		chunkStats := make(map[int]ChunkStat)
		for s := 0; s < shards; s++ {
			firstChunk := s * nc / shards
			lastChunk := (s + 1) * nc / shards
			from := firstChunk * cs
			to := lastChunk * cs
			if to > trials {
				to = trials
			}
			camp := &Campaign{
				Trials: trials, Seed: seed, Trial: gaussTrial, Spec: spec,
				From: from, To: to,
				OnChunk: func(st ChunkStat) { chunkStats[st.Chunk] = st },
			}
			if _, err := camp.Run(context.Background()); err != nil {
				t.Fatalf("k=%d shard %d: %v", k, s, err)
			}
		}
		if len(chunkStats) != nc {
			t.Fatalf("k=%d: gathered %d/%d chunks", k, len(chunkStats), nc)
		}
		var merged MCStats
		for c := 0; c < nc; c++ {
			st := chunkStats[c]
			merged.Merge(&st.Stats)
		}
		if got, want := merged.Completed(), ref.Completed(); got != want {
			t.Fatalf("k=%d: completed %d != %d", k, got, want)
		}
		if merged.Mean() != ref.Stats.Mean() {
			t.Errorf("k=%d: mean %v != %v (not bit-identical)", k, merged.Mean(), ref.Stats.Mean())
		}
		if merged.StdDev() != ref.Stats.StdDev() {
			t.Errorf("k=%d: std %v != %v (not bit-identical)", k, merged.StdDev(), ref.Stats.StdDev())
		}
		if merged.Pass != ref.Stats.Pass {
			t.Errorf("k=%d: pass %d != %d", k, merged.Pass, ref.Stats.Pass)
		}
		if merged.Yield() != ref.Stats.Yield() {
			t.Errorf("k=%d: yield %v != %v", k, merged.Yield(), ref.Stats.Yield())
		}
		for _, p := range []float64{0.05, 0.5, 0.95} {
			est := merged.Quantile(p)
			i := sort.SearchFloat64s(sorted, est)
			if e := math.Abs(float64(i)/float64(len(sorted)) - p); e > 2.0/mathx.DefaultSketchCompression {
				t.Errorf("k=%d p=%g: rank error %.4f over bound", k, p, e)
			}
		}
	}
}

// Resuming from the first m chunk checkpoints must reproduce the
// uninterrupted run's moments bit-for-bit while re-running only the
// remaining chunks.
func TestCampaignResumeBitIdentical(t *testing.T) {
	const trials, seed = 900, 3
	var chunks []ChunkStat
	full := &Campaign{
		Trials: trials, Seed: seed, Trial: gaussTrial,
		OnChunk: func(st ChunkStat) { chunks = append(chunks, st) },
	}
	ref, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	nc := NumChunks(trials)
	if len(chunks) != nc {
		t.Fatalf("expected %d chunk checkpoints, got %d", nc, len(chunks))
	}
	for _, m := range []int{1, nc - 1, nc} {
		var reran int
		var mu sync.Mutex
		camp := &Campaign{
			Trials: trials, Seed: seed, Trial: gaussTrial,
			Resume: chunks[:m],
			OnChunk: func(ChunkStat) {
				mu.Lock()
				reran++
				mu.Unlock()
			},
		}
		res, err := camp.Run(context.Background())
		if err != nil {
			t.Fatalf("resume m=%d: %v", m, err)
		}
		if res.Resumed != m || reran != nc-m {
			t.Fatalf("m=%d: resumed %d, re-ran %d (want %d, %d)", m, res.Resumed, reran, m, nc-m)
		}
		if res.Completed() != ref.Completed() {
			t.Fatalf("m=%d: completed %d != %d", m, res.Completed(), ref.Completed())
		}
		if res.Stats.Moments != ref.Stats.Moments {
			t.Fatalf("m=%d: moments %+v != %+v (not bit-identical)", m, res.Stats.Moments, ref.Stats.Moments)
		}
	}
}

// A checkpoint from a different grid (wrong trial count) must be
// rejected, not silently merged.
func TestCampaignResumeRejectsForeignChunk(t *testing.T) {
	camp := &Campaign{
		Trials: 400, Seed: 1, Trial: gaussTrial,
		Resume: []ChunkStat{{Chunk: 0, From: 0, To: 64}}, // grid says [0,100)
	}
	if _, err := camp.Run(context.Background()); err == nil {
		t.Fatal("foreign chunk accepted")
	}
}

func TestCampaignRejectsMisalignedRange(t *testing.T) {
	camp := &Campaign{Trials: 400, Seed: 1, Trial: gaussTrial, From: 37, To: 200}
	if _, err := camp.Run(context.Background()); err == nil {
		t.Fatal("misaligned range accepted")
	}
}

// Cancellation mid-campaign returns the completed portion with exact
// accounting and never emits a checkpoint for the partial chunk.
func TestCampaignCancelPartial(t *testing.T) {
	const trials = 1024
	ctx, cancel := context.WithCancel(context.Background())
	var emitted []ChunkStat
	camp := &Campaign{
		Trials: trials, Seed: 5,
		Trial: func(rng *mathx.RNG, i int) (float64, error) {
			if i == 300 {
				cancel()
			}
			return rng.Float64(), nil
		},
		OnChunk: func(st ChunkStat) { emitted = append(emitted, st) },
	}
	res, err := camp.Run(ctx)
	if err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
	if res.Cancelled == 0 || res.Completed()+res.Cancelled != trials {
		t.Fatalf("accounting: completed %d + cancelled %d != %d", res.Completed(), res.Cancelled, trials)
	}
	for _, st := range emitted {
		if got := st.Stats.Completed(); got != st.To-st.From {
			t.Fatalf("checkpoint for incomplete chunk %d: %d/%d trials", st.Chunk, got, st.To-st.From)
		}
	}
}
