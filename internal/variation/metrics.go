package variation

import (
	"sync/atomic"

	"repro/internal/obs"
)

// pkgMetrics holds the Monte-Carlo engine's instruments. Trial latency is
// staged per worker in an obs.HistBuf and flushed when the worker exits;
// the outcome counters are added during single-threaded result assembly
// so they always sum consistently with the MCResult they describe.
type pkgMetrics struct {
	trials       *obs.Counter
	nans         *obs.Counter
	cancelled    *obs.Counter
	trialSeconds *obs.Histogram
	// chunks counts campaign grid chunks computed to completion here;
	// chunksResumed counts chunks restored from checkpoints instead of
	// re-run — together they expose how much re-work a resume saved.
	chunks        *obs.Counter
	chunksResumed *obs.Counter
	// failures indexes by FailureKind (other, convergence, panic,
	// cancelled) — a counter per taxonomy kind.
	failures [4]*obs.Counter
}

var met atomic.Pointer[pkgMetrics]

// SetMetrics wires the Monte-Carlo engine's instrumentation into reg, or
// disables it when reg is nil.
//
// Metrics registered:
//
//	variation_trials_total                        count  trials run to a verdict
//	variation_trial_nans_total                    count  trials that returned NaN
//	variation_trials_cancelled_total              count  trials never run (context cancelled)
//	variation_trial_seconds                       s      per-trial latency histogram
//	variation_mc_chunks_total                     count  campaign chunks computed to completion
//	variation_mc_chunks_resumed_total             count  campaign chunks restored from checkpoints
//	variation_trial_failures_other_total          count  failed trials by taxonomy kind
//	variation_trial_failures_convergence_total    count
//	variation_trial_failures_panic_total          count
//	variation_trial_failures_cancelled_total      count
func SetMetrics(reg *obs.Registry) {
	if reg == nil {
		met.Store(nil)
		return
	}
	m := &pkgMetrics{
		trials:       reg.Counter("variation_trials_total", "1", "Monte-Carlo trials run to a verdict"),
		nans:         reg.Counter("variation_trial_nans_total", "1", "trials whose metric was NaN"),
		cancelled:    reg.Counter("variation_trials_cancelled_total", "1", "trials never run due to cancellation"),
		trialSeconds: reg.Histogram("variation_trial_seconds", "s", "per-trial latency", nil),
		chunks: reg.Counter("variation_mc_chunks_total", "1",
			"campaign grid chunks computed to completion"),
		chunksResumed: reg.Counter("variation_mc_chunks_resumed_total", "1",
			"campaign grid chunks restored from checkpoints"),
	}
	for k := FailOther; k <= FailCancelled; k++ {
		m.failures[k] = reg.Counter(
			"variation_trial_failures_"+k.String()+"_total", "1",
			"failed trials classified as "+k.String())
	}
	met.Store(m)
}

// record adds one finished MCResult to the global counters. Called once
// per run from the assembling goroutine.
func (m *pkgMetrics) record(res *MCResult) {
	m.trials.Add(int64(res.Completed()))
	m.nans.Add(int64(res.NaNs))
	m.cancelled.Add(int64(res.Cancelled))
	for k, c := range m.failures {
		c.Add(int64(res.Stats.ByKind[FailureKind(k).String()]))
	}
}
