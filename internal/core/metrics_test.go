package core

import (
	"context"
	"testing"

	"repro/internal/em"
	"repro/internal/obs"
)

// TestMetricsConsistentWithTelemetry runs a full reliability study with the
// whole-stack instrumentation enabled and checks that the obs counters
// stamped into Result.Telemetry.Metrics move by exactly the amounts the
// Result itself reports: the two accounting paths (structured telemetry
// and the metrics registry) must never drift apart, or operators watching
// /metrics would see a different run than the one the JSON report records.
func TestMetricsConsistentWithTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)

	before := reg.Snapshot()
	s := ampSim("90nm", 7)
	mission := Mission{Duration: 10 * year, TempK: 350, Checkpoints: 4}
	const nTrials = 32
	res, err := s.RunCtx(context.Background(), nTrials, mission)
	if err != nil {
		t.Fatal(err)
	}

	after := res.Telemetry.Metrics
	if after == nil {
		t.Fatal("Telemetry.Metrics is nil with metrics enabled")
	}
	delta := func(name string) int64 {
		b, _ := before.Counter(name)
		a, ok := after.Counter(name)
		if !ok {
			t.Fatalf("counter %q missing from snapshot", name)
		}
		return a - b
	}

	if got := delta("core_runs_total"); got != 1 {
		t.Errorf("core_runs_total moved by %d, want 1", got)
	}
	if got := delta("core_trials_completed_total"); got != int64(res.Telemetry.Completed) {
		t.Errorf("core_trials_completed_total moved by %d, Telemetry.Completed = %d",
			got, res.Telemetry.Completed)
	}
	if got := delta("core_trial_errors_total"); got != int64(res.Errors) {
		t.Errorf("core_trial_errors_total moved by %d, Result.Errors = %d", got, res.Errors)
	}
	if got := delta("core_trials_cancelled_total"); got != int64(res.Cancelled) {
		t.Errorf("core_trials_cancelled_total moved by %d, Result.Cancelled = %d",
			got, res.Cancelled)
	}

	// The circuit-level Newton counter covers everything Telemetry counts
	// plus the nominal warm-start solve RunCtx performs outside any trial,
	// so it must be >= and within one extra operating point of the
	// telemetry total.
	newton := delta("circuit_newton_iterations_total")
	if newton < res.Telemetry.NewtonIterations {
		t.Errorf("circuit_newton_iterations_total moved by %d < Telemetry.NewtonIterations %d",
			newton, res.Telemetry.NewtonIterations)
	}

	// Trials run on the variation campaign engine, whose per-trial
	// latency histogram must have recorded every completed trial
	// (cancelled trials are never claimed by a worker).
	h := after.Histogram("variation_trial_seconds")
	if h == nil {
		t.Fatal("variation_trial_seconds missing from snapshot")
	}
	var hb int64
	if prev := before.Histogram("variation_trial_seconds"); prev != nil {
		hb = prev.Count
	}
	if got := h.Count - hb; got != int64(res.Telemetry.Completed) {
		t.Errorf("variation_trial_seconds recorded %d trials, Telemetry.Completed = %d",
			got, res.Telemetry.Completed)
	}
	if h := after.Histogram("core_trial_seconds"); h != nil {
		t.Error("core_trial_seconds still registered; variation_trial_seconds times core trials")
	}

	// A second run against the same registry must advance the counters
	// cumulatively — snapshots are process totals, not per-run resets.
	res2, err := s.RunCtx(context.Background(), nTrials, mission)
	if err != nil {
		t.Fatal(err)
	}
	done1, _ := after.Counter("core_trials_completed_total")
	done2, ok := res2.Telemetry.Metrics.Counter("core_trials_completed_total")
	if !ok || done2-done1 != int64(res2.Telemetry.Completed) {
		t.Errorf("second run moved core_trials_completed_total by %d, want %d",
			done2-done1, res2.Telemetry.Completed)
	}
}

// TestMetricsDisabledLeavesTelemetryBare checks the disabled path: no
// registry, no snapshot, and RunCtx still produces a full Result.
func TestMetricsDisabledLeavesTelemetryBare(t *testing.T) {
	EnableMetrics(nil)
	s := ampSim("90nm", 3)
	res, err := s.RunCtx(context.Background(), 8,
		Mission{Duration: year, TempK: 350, Checkpoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry.Metrics != nil {
		t.Error("Telemetry.Metrics non-nil with metrics disabled")
	}
	if res.Telemetry.Completed != 8 {
		t.Errorf("Completed = %d, want 8", res.Telemetry.Completed)
	}
}

// TestEnableMetricsWiresEM checks that EnableMetrics reaches the EM
// checker that every signoff's wear-out node runs: one Check moves
// em_wires_checked_total by the number of wires it assessed.
func TestEnableMetricsWiresEM(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)

	wires := []*em.Wire{
		{Name: "a", Width: 0.2e-6, Thickness: 0.2e-6, Length: 100e-6, Current: 1e-4},
		{Name: "b", Width: 0.2e-6, Thickness: 0.2e-6, Length: 100e-6, Current: 1e-3},
	}
	em.DefaultBlack().Check(wires, 10*year, 378)
	if n, ok := reg.Snapshot().Counter("em_wires_checked_total"); !ok || n != int64(len(wires)) {
		t.Errorf("em_wires_checked_total = %d (registered %v), want %d", n, ok, len(wires))
	}
}
