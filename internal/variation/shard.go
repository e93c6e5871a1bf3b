package variation

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mathx"
	"repro/internal/obs"
)

// This file is the sharded, resumable Monte-Carlo campaign engine. The
// collect-all-then-sort MCResult cannot be merged, streamed or resumed —
// a campaign that dies at trial 9,900 of 10,000 re-runs from zero. The
// campaign engine replaces that with mergeable statistics over a fixed
// global chunk grid:
//
//   - The trial axis [0, Trials) is cut into chunks whose size is a pure
//     function of Trials (ChunkSize), so every executor — single-shard,
//     k-shard, resumed — sees the identical grid.
//   - Each chunk folds its trials, in trial order, into an MCStats
//     (mergeable moments + quantile sketch + outcome counts).
//   - The campaign result is the fold of per-chunk stats in ascending
//     chunk order, regardless of which process computed which chunk.
//
// Because both the per-trial RNG substream (Split on the global trial
// index) and the fold order are functions of the global grid alone, a
// k-shard scatter-gather reproduces the single-shard mean/std/yield
// bit-for-bit, and quantiles within the sketch's documented rank-error
// bound. Completed chunks are surfaced through OnChunk so a durability
// layer can checkpoint them; a resumed campaign re-runs at most the one
// chunk that was in flight when the process died.

// maxChunkTrials bounds a chunk: small enough that losing the in-flight
// chunk is cheap re-work, large enough that checkpoint overhead stays
// negligible.
const maxChunkTrials = 256

// ChunkSize returns the campaign chunk size for a trial count — a pure
// function of trials (min(256, ceil(trials/4))), so every executor of the
// same campaign derives the identical global chunk grid.
func ChunkSize(trials int) int {
	c := (trials + 3) / 4
	if c > maxChunkTrials {
		c = maxChunkTrials
	}
	if c < 1 {
		c = 1
	}
	return c
}

// NumChunks returns the number of grid chunks for a trial count.
func NumChunks(trials int) int {
	cs := ChunkSize(trials)
	return (trials + cs - 1) / cs
}

// ChunkRange returns chunk i's half-open global trial range [from, to).
func ChunkRange(trials, i int) (from, to int) {
	cs := ChunkSize(trials)
	from = i * cs
	to = from + cs
	if to > trials {
		to = trials
	}
	return from, to
}

// MCStats is the mergeable statistical summary of a set of Monte-Carlo
// trials: exact moments and extrema of the successful values, a bounded-
// error quantile sketch, the spec-pass count, and the failure accounting.
// Merging per-chunk MCStats in a fixed order is bit-deterministic for
// count/mean/M2/pass (and therefore mean, std and yield), and keeps
// quantiles within the sketch's rank-error bound.
type MCStats struct {
	// Moments summarises the successful trial values exactly.
	Moments mathx.Moments `json:"moments"`
	// Sketch summarises the value distribution for quantile reads.
	Sketch *mathx.Sketch `json:"sketch,omitempty"`
	// Pass counts values meeting the campaign spec (0 when no spec).
	Pass int `json:"pass,omitempty"`
	// NaNs and Failures mirror MCResult's accounting.
	NaNs     int `json:"nans,omitempty"`
	Failures int `json:"failures,omitempty"`
	// ByKind tallies failures by taxonomy kind name.
	ByKind map[string]int `json:"by_kind,omitempty"`
	// First is the first structured failure, in trial order.
	First string `json:"first_failure,omitempty"`
}

// foldSlots folds a chunk's trial outcomes in trial order and returns how
// many of them ran; slots cancelled before dispatch are left out. The
// sketch's buffer is sized for the chunk's values up front.
func (s *MCStats) foldSlots(slots []trialSlot, spec *Spec) (ran int) {
	values := 0
	for _, sl := range slots {
		if sl.ok {
			values++
		}
	}
	if values > 0 && s.Sketch == nil {
		s.Sketch = &mathx.Sketch{}
		s.Sketch.Grow(values)
	}
	for _, sl := range slots {
		switch {
		case sl.ok:
			s.addValue(sl.value, spec != nil && spec.Pass(sl.value))
		case sl.nan:
			s.NaNs++
		case sl.done:
			s.addFailure(sl.err)
		default:
			continue
		}
		ran++
	}
	return ran
}

// addValue folds one successful trial value.
func (s *MCStats) addValue(v float64, pass bool) {
	s.Moments.Add(v)
	if s.Sketch == nil {
		s.Sketch = &mathx.Sketch{}
	}
	s.Sketch.Add(v)
	if pass {
		s.Pass++
	}
}

// addFailure folds one failed trial.
func (s *MCStats) addFailure(te *TrialError) {
	s.Failures++
	if s.ByKind == nil {
		s.ByKind = make(map[string]int)
	}
	s.ByKind[te.Kind().String()]++
	if s.First == "" {
		s.First = te.Error()
	}
}

// Merge folds other into s, as if other's trials had been folded here.
// Count, mean, M2, pass and the outcome counters merge exactly; the
// sketch merge is deterministic with bounded rank error. Fold shards in
// ascending global chunk order to reproduce a single-shard run
// bit-for-bit.
func (s *MCStats) Merge(other *MCStats) {
	if other == nil {
		return
	}
	s.Moments.Merge(other.Moments)
	if other.Sketch != nil {
		if s.Sketch == nil {
			s.Sketch = &mathx.Sketch{}
		}
		s.Sketch.Merge(other.Sketch)
	}
	s.Pass += other.Pass
	s.NaNs += other.NaNs
	s.Failures += other.Failures
	if len(other.ByKind) > 0 && s.ByKind == nil {
		s.ByKind = make(map[string]int, len(other.ByKind))
	}
	for k, n := range other.ByKind {
		s.ByKind[k] += n
	}
	if s.First == "" {
		s.First = other.First
	}
}

// Completed returns the trials summarised to a verdict.
func (s *MCStats) Completed() int { return int(s.Moments.Count) + s.NaNs + s.Failures }

// Mean returns the mean of the successful values (NaN when none).
func (s *MCStats) Mean() float64 { return s.Moments.MeanValue() }

// StdDev returns the sample standard deviation of the successful values.
func (s *MCStats) StdDev() float64 { return s.Moments.StdDev() }

// Quantile returns the sketch's p-quantile estimate (NaN when empty).
func (s *MCStats) Quantile(p float64) float64 {
	if s.Sketch == nil {
		return math.NaN()
	}
	return s.Sketch.Quantile(p)
}

// Yield returns the Wilson-interval yield of the pass count over the
// measured dies. A NaN trial is a measured reject — the die ran but its
// metric was undefined — so it counts in the denominator, consistent with
// the FailureKind accounting and the MCResult contract ("a NaN die is a
// measured reject, an errored trial is missing data"). Errored trials are
// missing data and stay out of both numerator and denominator.
func (s *MCStats) Yield() YieldEstimate {
	return YieldFromCounts(s.Pass, int(s.Moments.Count)+s.NaNs)
}

// ChunkStat is one completed grid chunk's summary — the unit of
// checkpointing and of shard scatter-gather. From/To are global trial
// indices.
type ChunkStat struct {
	Chunk int     `json:"chunk"`
	From  int     `json:"from"`
	To    int     `json:"to"`
	Stats MCStats `json:"stats"`
}

// Campaign is a resumable Monte-Carlo run over a trial sub-range of the
// global chunk grid. The zero value is not runnable: Trials, Seed and
// Trial are required.
type Campaign struct {
	// Trials is the TOTAL campaign trial count — it defines the global
	// chunk grid and the RNG substream of every trial, even when this
	// executor only runs a sub-range.
	Trials int
	// Seed is the campaign seed; trial i draws from NewRNG(Seed).Split(i),
	// so its value depends only on (Seed, i), never on GOMAXPROCS, the
	// shard split or the resume point.
	Seed uint64
	// Trial evaluates one die. Trials run in parallel; a panicking trial
	// is recovered inside its worker and counted as a failure.
	Trial Trial
	// Spec, when non-nil, counts per-trial passes into MCStats.Pass.
	Spec *Spec
	// From/To select the half-open trial sub-range to execute; both zero
	// means the full campaign. They must be chunk-aligned on the global
	// grid.
	From, To int
	// Resume supplies chunk summaries recovered from checkpoints; those
	// chunks are folded without re-running their trials.
	Resume []ChunkStat
	// OnChunk, when non-nil, receives every newly-computed (not resumed)
	// complete chunk, in ascending chunk order. This is the checkpoint
	// hook: a chunk emitted here is durable re-work saved on resume.
	OnChunk func(ChunkStat)
}

// Run executes the campaign's trial range. The returned MCResult carries
// the merged Stats; its counters obey Cancelled + NaNs + Failures +
// successes == To-From. Cancellation mid-run returns the completed
// portion with an error wrapping ErrCancelled; the partially-run chunk is
// folded into Stats but never emitted through OnChunk, so checkpoints
// only ever describe complete chunks.
func (c *Campaign) Run(ctx context.Context) (*MCResult, error) {
	if c.Trials <= 0 {
		return nil, fmt.Errorf("variation: campaign needs Trials > 0, got %d", c.Trials)
	}
	if c.Trial == nil {
		return nil, fmt.Errorf("variation: campaign needs a Trial function")
	}
	from, to := c.From, c.To
	if from == 0 && to == 0 {
		to = c.Trials
	}
	cs := ChunkSize(c.Trials)
	if from < 0 || to > c.Trials || from >= to {
		return nil, fmt.Errorf("variation: campaign range [%d,%d) outside [0,%d)", from, to, c.Trials)
	}
	if from%cs != 0 || (to%cs != 0 && to != c.Trials) {
		return nil, fmt.Errorf("variation: campaign range [%d,%d) not aligned to the %d-trial chunk grid", from, to, cs)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	resumed := make(map[int]ChunkStat, len(c.Resume))
	for _, st := range c.Resume {
		ef, et := ChunkRange(c.Trials, st.Chunk)
		if st.From != ef || st.To != et {
			return nil, fmt.Errorf("variation: resume chunk %d range [%d,%d) does not match grid [%d,%d) — checkpoint from a different campaign?",
				st.Chunk, st.From, st.To, ef, et)
		}
		resumed[st.Chunk] = st
	}

	start := time.Now()
	root := mathx.NewRNG(c.Seed)
	m := met.Load()
	res := &MCResult{N: to - from, Stats: &MCStats{}}
	completed := 0
	firstChunk, lastChunk := from/cs, (to+cs-1)/cs
	scratch := newTrialScratch(cs)
	for chunk := firstChunk; chunk < lastChunk; chunk++ {
		if st, ok := resumed[chunk]; ok {
			res.Stats.Merge(&st.Stats)
			res.Resumed++
			completed += st.To - st.From
			if m != nil {
				m.chunksResumed.Inc()
			}
			continue
		}
		if ctx.Err() != nil {
			break
		}
		cf, ct := ChunkRange(c.Trials, chunk)
		slots := runChunkTrials(ctx, root, cf, ct, c.Trial, m, scratch)
		// Fold in trial order: the sequential fold is what makes the final
		// Stats independent of worker scheduling and shard count. Trials
		// cancelled before dispatch are accounted below.
		st := ChunkStat{Chunk: chunk, From: cf, To: ct}
		ran := st.Stats.foldSlots(slots, c.Spec)
		res.Stats.Merge(&st.Stats)
		completed += ran
		if ran == ct-cf {
			// Only a complete chunk is checkpoint-worthy.
			if m != nil {
				m.chunks.Inc()
			}
			if c.OnChunk != nil {
				c.OnChunk(st)
			}
		}
	}
	res.NaNs = res.Stats.NaNs
	res.Failures = res.Stats.Failures
	res.Cancelled = (to - from) - completed
	res.Elapsed = time.Since(start)
	if m != nil {
		m.record(res)
	}
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("%w after %d/%d trials: %v", ErrCancelled, res.Completed(), to-from, err)
	}
	return res, nil
}

// trialSlot is one trial's outcome, indexed by position within a chunk.
type trialSlot struct {
	value float64
	ok    bool
	nan   bool
	done  bool
	err   *TrialError
}

// trialScratch is what runChunkTrials runs a chunk in: one slot per trial
// of a full chunk and one RNG per worker. Campaign.Run allocates it once
// and reuses it for every chunk, so a warm trial allocates nothing here.
type trialScratch struct {
	slots []trialSlot
	rngs  []mathx.RNG
}

// newTrialScratch sizes a scratch for chunks of up to chunk trials and
// GOMAXPROCS workers.
func newTrialScratch(chunk int) *trialScratch {
	return &trialScratch{
		slots: make([]trialSlot, chunk),
		rngs:  make([]mathx.RNG, runtime.GOMAXPROCS(0)),
	}
}

// runChunkTrials executes global trials [from, to) in parallel with panic
// isolation and per-trial RNG substreams; slot i of the returned slice (a
// view into sc, valid until sc runs the next chunk) holds global trial
// from+i. Workers claim trial indices from a shared atomic counter — no
// channel hand-off per trial — and stop claiming once ctx is cancelled,
// leaving the unclaimed slots unrun. Each worker re-seeds its own RNG in
// place for every trial it claims. Each worker times its trials into a
// private histogram buffer (one clock read per trial boundary) and
// flushes it when it exits, so the registry is exact when this returns.
func runChunkTrials(ctx context.Context, root *mathx.RNG, from, to int, trial Trial, m *pkgMetrics, sc *trialScratch) []trialSlot {
	n := to - from
	slots := sc.slots[:n]
	clear(slots)
	runOne := func(g int, rng *mathx.RNG) {
		defer func() {
			if r := recover(); r != nil {
				slots[g-from] = trialSlot{done: true, err: &TrialError{
					Index: g, Phase: "trial",
					Cause: &PanicError{Value: r},
				}}
			}
		}()
		root.SplitInto(rng, uint64(g))
		v, err := trial(rng, g)
		switch {
		case err != nil:
			slots[g-from] = trialSlot{done: true, err: &TrialError{Index: g, Phase: "trial", Cause: err}}
		case math.IsNaN(v):
			slots[g-from] = trialSlot{done: true, nan: true}
		default:
			slots[g-from] = trialSlot{done: true, value: v, ok: true}
		}
	}
	workers := len(sc.rngs)
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rng *mathx.RNG) {
			defer wg.Done()
			var buf obs.HistBuf
			var t int64
			if m != nil {
				buf.Bind(m.trialSeconds)
				t = obs.Mono()
			}
			defer buf.Flush()
			for ctx.Err() == nil {
				g := int(next.Add(1) - 1)
				if g >= to {
					return
				}
				runOne(g, rng)
				if m != nil {
					now := obs.Mono()
					buf.ObserveNanos(now - t)
					t = now
				}
			}
		}(&sc.rngs[w])
	}
	wg.Wait()
	return slots
}
