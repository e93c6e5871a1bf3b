package variation

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/mathx"
)

// Trial is one Monte-Carlo evaluation. It receives a private, reproducible
// RNG stream and the trial index, and returns the sampled metric. Returning
// an error marks the trial failed (counted, not fatal).
type Trial func(rng *mathx.RNG, i int) (float64, error)

// MCResult is the outcome of a Monte-Carlo run. Values holds the metric of
// every successful trial in trial order (failed trials are skipped).
type MCResult struct {
	Values []float64
	// Failures counts trials that ran but returned an error or panicked —
	// the simulator could not produce a result at all (non-convergence,
	// bad topology, model panic).
	Failures int
	// NaNs counts trials that returned NaN without an error — the
	// simulation ran but the metric was undefined. Distinguishing the two
	// matters for yield accounting: a NaN die is a measured reject, an
	// errored trial is missing data.
	NaNs int
	// Cancelled counts trials that never ran because the run's context
	// was cancelled. Values/Failures/NaNs then describe a partial run:
	// Cancelled + NaNs + Failures + len(Values) == N always holds.
	Cancelled int
	// Errors holds one structured record per failed trial, in trial
	// order; len(Errors) == Failures.
	Errors []*TrialError
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
	// N is the requested trial count.
	N int
	// Stats is the mergeable statistical summary of the run, set by the
	// Campaign engine (and usable standalone via MCStats.Merge). When
	// Values is empty — sharded or resumed campaigns don't ship per-trial
	// values — Mean/StdDev/Quantile/Completed answer from Stats instead.
	Stats *MCStats
	// Resumed counts chunks restored from checkpoints instead of re-run.
	Resumed int
}

// Mean returns the sample mean of the collected values (NaN when no trial
// succeeded). Without per-trial values it answers from the merged Stats.
func (r *MCResult) Mean() float64 {
	if len(r.Values) == 0 && r.Stats != nil {
		return r.Stats.Mean()
	}
	return mathx.Mean(r.Values)
}

// StdDev returns the sample standard deviation (NaN when no trial
// succeeded). Without per-trial values it answers from the merged Stats.
func (r *MCResult) StdDev() float64 {
	if len(r.Values) == 0 && r.Stats != nil {
		return r.Stats.StdDev()
	}
	return mathx.StdDev(r.Values)
}

// Quantile returns the p-quantile of the collected values, or NaN when no
// trial succeeded — consistent with Mean/StdDev rather than panicking.
// Each call sorts a copy of Values. Without per-trial values the sketch
// in Stats answers with bounded rank error.
func (r *MCResult) Quantile(p float64) float64 {
	if len(r.Values) == 0 {
		if r.Stats != nil {
			return r.Stats.Quantile(p)
		}
		return math.NaN()
	}
	return mathx.Quantile(r.Values, p)
}

// Completed returns the number of trials that actually ran to a verdict.
func (r *MCResult) Completed() int {
	if r.Stats != nil {
		return r.Stats.Completed()
	}
	return len(r.Values) + r.NaNs + r.Failures
}

// ErrorsByKind tallies the structured failures by taxonomy kind.
func (r *MCResult) ErrorsByKind() map[FailureKind]int { return CountByKind(r.Errors) }

// MonteCarloCtx runs n trials with the given seed. Trials execute in
// parallel but every trial's RNG stream depends only on (seed, index), so
// results are bit-identical regardless of GOMAXPROCS; n <= 0 is an error.
// A panicking trial is recovered inside its worker and recorded as a
// structured *TrialError instead of crashing the process. When ctx is
// cancelled the workers stop claiming trials, and the partial result is
// returned with accurate Failures/NaNs/Cancelled counts alongside an error
// wrapping ErrCancelled. It is a full-range Campaign that keeps per-trial
// values.
func MonteCarloCtx(ctx context.Context, n int, seed uint64, trial Trial) (*MCResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("variation: MonteCarlo needs n > 0, got %d", n)
	}
	c := Campaign{Trials: n, Seed: seed, Trial: trial, KeepValues: true}
	return c.Run(ctx)
}

// Spec is an interval specification on a metric: the circuit passes when
// Lo <= value <= Hi. Use ±Inf for one-sided specs.
type Spec struct {
	Name   string
	Lo, Hi float64
}

// Pass reports whether v meets the spec.
func (s Spec) Pass(v float64) bool { return v >= s.Lo && v <= s.Hi }

// YieldEstimate is a binomial yield with a Wilson 95 % confidence interval.
type YieldEstimate struct {
	Pass, Total int
	Yield       float64
	// Lo95 and Hi95 bound the Wilson score interval.
	Lo95, Hi95 float64
}

// String formats the estimate as "87.3% [84.1, 90.0]".
func (y YieldEstimate) String() string {
	return fmt.Sprintf("%.1f%% [%.1f, %.1f]", 100*y.Yield, 100*y.Lo95, 100*y.Hi95)
}

// EstimateYield computes the fraction of values meeting spec with a Wilson
// 95 % interval. Failed (absent) trials are not counted; pass total
// separately if they should count as fails.
func EstimateYield(values []float64, spec Spec) YieldEstimate {
	pass := 0
	for _, v := range values {
		if spec.Pass(v) {
			pass++
		}
	}
	return YieldFromCounts(pass, len(values))
}

// YieldFromCounts computes the Wilson interval for pass successes out of
// total trials.
func YieldFromCounts(pass, total int) YieldEstimate {
	y := YieldEstimate{Pass: pass, Total: total}
	if total == 0 {
		return y
	}
	p := float64(pass) / float64(total)
	y.Yield = p
	const z = 1.959963984540054 // 97.5th normal percentile
	n := float64(total)
	denom := 1 + z*z/n
	centre := (p + z*z/(2*n)) / denom
	half := z * math.Sqrt(p*(1-p)/n+z*z/(4*n*n)) / denom
	y.Lo95 = math.Max(0, centre-half)
	y.Hi95 = math.Min(1, centre+half)
	return y
}
