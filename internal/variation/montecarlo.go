package variation

import (
	"fmt"
	"math"
	"time"

	"repro/internal/mathx"
)

// Trial is one Monte-Carlo evaluation. It receives a private, reproducible
// RNG stream and the trial index, and returns the sampled metric. Returning
// an error marks the trial failed (counted, not fatal). The RNG belongs to
// the worker running the trial and is re-seeded for its next trial, so a
// Trial must not keep it past its return.
type Trial func(rng *mathx.RNG, i int) (float64, error)

// MCResult is the outcome of a Monte-Carlo run: the mergeable Stats its
// Campaign folded, and the run's outcome accounting.
type MCResult struct {
	// Failures counts trials that ran but returned an error or panicked —
	// the simulator could not produce a result at all (non-convergence,
	// bad topology, model panic). Stats.ByKind and Stats.First classify
	// them.
	Failures int
	// NaNs counts trials that returned NaN without an error — the
	// simulation ran but the metric was undefined. Distinguishing the two
	// matters for yield accounting: a NaN die is a measured reject, an
	// errored trial is missing data.
	NaNs int
	// Cancelled counts trials that never ran because the run's context
	// was cancelled. The other counters then describe a partial run:
	// Stats.Moments.Count + NaNs + Failures + Cancelled == N always holds.
	Cancelled int
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
	// N is the requested trial count.
	N int
	// Stats is the mergeable statistical summary of the run; Campaign.Run
	// always sets it.
	Stats *MCStats
	// Resumed counts chunks restored from checkpoints instead of re-run.
	Resumed int
}

// Mean returns the mean of the successful values (NaN when none).
func (r *MCResult) Mean() float64 { return r.Stats.Mean() }

// StdDev returns the sample standard deviation of the successful values
// (NaN when none).
func (r *MCResult) StdDev() float64 { return r.Stats.StdDev() }

// Completed returns the number of trials that actually ran to a verdict.
func (r *MCResult) Completed() int { return r.Stats.Completed() }

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
