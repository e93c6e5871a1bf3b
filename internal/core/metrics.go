package core

import (
	"sync/atomic"

	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/variation"
)

// pkgMetrics holds the reliability simulator's own instruments plus the
// registry they came from, so a finished run can stamp a whole-stack
// Snapshot into its Result.Telemetry.
type pkgMetrics struct {
	reg         *obs.Registry
	trialsDone  *obs.Counter
	trialErrors *obs.Counter
	cancelled   *obs.Counter
	runs        *obs.Counter
}

var met atomic.Pointer[pkgMetrics]

// SetMetrics wires the core simulator's instrumentation into reg, or
// disables it when reg is nil. The counters are added during the
// single-threaded accounting pass of RunCtx, so for any single run their
// deltas equal the Result.Telemetry fields exactly. Trials run on the
// variation.Campaign engine, so variation_trial_seconds (registered by
// variation.SetMetrics) times every reliability trial.
//
// Metrics registered:
//
//	core_runs_total                count  RunCtx invocations
//	core_trials_completed_total    count  trials run to a verdict (== Telemetry.Completed summed)
//	core_trial_errors_total        count  trials whose simulation failed (== Result.Errors summed)
//	core_trials_cancelled_total    count  trials never run (== Result.Cancelled summed)
func SetMetrics(reg *obs.Registry) {
	if reg == nil {
		met.Store(nil)
		return
	}
	met.Store(&pkgMetrics{
		reg:         reg,
		runs:        reg.Counter("core_runs_total", "1", "reliability runs started"),
		trialsDone:  reg.Counter("core_trials_completed_total", "1", "reliability trials run to a verdict"),
		trialErrors: reg.Counter("core_trial_errors_total", "1", "reliability trials that errored"),
		cancelled:   reg.Counter("core_trials_cancelled_total", "1", "reliability trials cancelled before running"),
	})
}

// EnableMetrics wires the whole reliability stack — linalg, circuit,
// variation, aging and core itself — into one registry in a single call
// (nil disables everything). The emc and em packages sit beside this
// stack rather than under it, so callers that use them wire
// emc.SetMetrics / em.SetMetrics separately.
func EnableMetrics(reg *obs.Registry) {
	linalg.SetMetrics(reg)
	circuit.SetMetrics(reg)
	variation.SetMetrics(reg)
	aging.SetMetrics(reg)
	SetMetrics(reg)
}
