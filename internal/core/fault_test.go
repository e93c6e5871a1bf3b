package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/variation"
)

// TestRunSurvivesPanickingBuild injects a panic into the first seven die
// builds: the run must complete, report each blown trial as a structured
// build-phase failure, and keep the yield denominator at the survivors.
func TestRunSurvivesPanickingBuild(t *testing.T) {
	const nTrials = 21
	s := ampSim("90nm", 3)
	inner := s.Build
	var calls int64
	s.Build = func() (*circuit.Circuit, error) {
		// Call 1 is the nominal warm-start build, which would otherwise
		// serve the first trial; it panics too, so no die exists yet.
		// Until one is built every trial builds one, so calls 2..8 panic
		// in 7 trials; the die built by call 9 is kept and serves the rest.
		if n := atomic.AddInt64(&calls, 1); n <= 8 {
			panic("fab line on fire")
		}
		return inner()
	}
	res, err := s.RunCtx(context.Background(), nTrials, Mission{Duration: year, TempK: 350, Checkpoints: 3})
	if err != nil {
		t.Fatal(err)
	}
	const wantErrors = 7
	if res.Errors != wantErrors || len(res.TrialErrors) != wantErrors {
		t.Fatalf("errors=%d structured=%d, want %d", res.Errors, len(res.TrialErrors), wantErrors)
	}
	for _, te := range res.TrialErrors {
		if te.Phase != "build" {
			t.Errorf("panic attributed to phase %q, want build", te.Phase)
		}
		if te.Kind() != variation.FailPanic {
			t.Errorf("panic classified as %v", te.Kind())
		}
	}
	if res.Telemetry.ErrorsByPhase["build"] != wantErrors {
		t.Errorf("ErrorsByPhase = %v", res.Telemetry.ErrorsByPhase)
	}
	if res.Telemetry.ErrorsByKind[variation.FailPanic] != wantErrors {
		t.Errorf("ErrorsByKind = %v", res.Telemetry.ErrorsByKind)
	}
	if got := res.Yield[0].Total; got != nTrials-wantErrors {
		t.Errorf("yield denominator %d, want %d survivors", got, nTrials-wantErrors)
	}
	if got := len(res.FailureTimes) + res.Errors; got != nTrials {
		t.Errorf("failure times + errors = %d, want %d", got, nTrials)
	}
	if res.Cancelled != 0 {
		t.Errorf("Cancelled = %d on an uncancelled run", res.Cancelled)
	}
}

// TestRunSurvivesPanickingMeasure blows up exactly one Measure call and
// checks the failure lands in the measure phase.
func TestRunSurvivesPanickingMeasure(t *testing.T) {
	s := ampSim("90nm", 5)
	var once sync.Once
	inner := s.Metrics[0].Measure
	s.Metrics[0].Measure = func(c *circuit.Circuit) (float64, error) {
		blow := false
		once.Do(func() { blow = true })
		if blow {
			panic("monitor divided by zero")
		}
		return inner(c)
	}
	res, err := s.RunCtx(context.Background(), 12, Mission{Duration: year, TempK: 350, Checkpoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 1 || len(res.TrialErrors) != 1 {
		t.Fatalf("errors=%d structured=%d, want exactly 1", res.Errors, len(res.TrialErrors))
	}
	te := res.TrialErrors[0]
	if te.Phase != "measure" {
		t.Errorf("panic attributed to phase %q, want measure", te.Phase)
	}
	var pe *variation.PanicError
	if !errors.As(te, &pe) {
		t.Error("measure panic lost its PanicError")
	}
}

// TestRunCtxCancellationPartialResult cancels mid-run and checks the
// partial result carries accurate Cancelled accounting.
func TestRunCtxCancellationPartialResult(t *testing.T) {
	const nTrials = 400
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := ampSim("90nm", 11)
	inner := s.Metrics[0].Measure
	var calls int64
	// Three measurements per trial: cancel during the fifth trial.
	s.Metrics[0].Measure = func(c *circuit.Circuit) (float64, error) {
		if atomic.AddInt64(&calls, 1) == 15 {
			cancel()
		}
		return inner(c)
	}
	res, err := s.RunCtx(ctx, nTrials, Mission{Duration: year, TempK: 350, Checkpoints: 2})
	if !errors.Is(err, variation.ErrCancelled) {
		t.Fatalf("cancelled run returned %v, want ErrCancelled", err)
	}
	if res == nil {
		t.Fatal("cancelled run must still return the partial result")
	}
	if res.Cancelled == 0 {
		t.Error("no trials accounted as cancelled")
	}
	if res.Telemetry.Completed != nTrials-res.Cancelled {
		t.Errorf("Completed = %d, want %d", res.Telemetry.Completed, nTrials-res.Cancelled)
	}
	if got := len(res.FailureTimes) + res.Errors + res.Cancelled; got != nTrials {
		t.Errorf("accounting leak: %d failure-times + %d errors + %d cancelled != %d",
			len(res.FailureTimes), res.Errors, res.Cancelled, nTrials)
	}
	for k := range res.Yield {
		if res.Yield[k].Total > res.Telemetry.Completed {
			t.Errorf("yield denominator %d exceeds completed trials %d",
				res.Yield[k].Total, res.Telemetry.Completed)
		}
	}
}

// TestRunCtxPreCancelled hands Run an already-dead context: nothing may
// execute and every trial must be accounted as cancelled.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := ampSim("90nm", 1)
	res, err := s.RunCtx(ctx, 10, Mission{Duration: year, TempK: 350, Checkpoints: 2})
	if !errors.Is(err, variation.ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	if res.Cancelled != 10 || res.Telemetry.Completed != 0 {
		t.Errorf("cancelled=%d completed=%d, want 10/0", res.Cancelled, res.Telemetry.Completed)
	}
}

func TestRunTelemetry(t *testing.T) {
	s := ampSim("90nm", 2)
	res, err := s.RunCtx(context.Background(), 8, Mission{Duration: year, TempK: 350, Checkpoints: 3})
	if err != nil {
		t.Fatal(err)
	}
	tel := res.Telemetry
	if tel.Completed != 8 {
		t.Errorf("Completed = %d, want 8", tel.Completed)
	}
	if tel.WallTime <= 0 {
		t.Error("wall time not recorded")
	}
	if tel.NewtonIterations <= 0 {
		t.Error("Newton iteration total not recorded")
	}
	if res.Errors == 0 && (tel.ErrorsByPhase != nil || tel.ErrorsByKind != nil) {
		t.Error("error maps must be nil on a clean run")
	}
}

// Regression: Mission{Checkpoints: 1} used to panic inside
// mathx.Logspace; it must now mean "end-of-life only".
func TestMissionSingleCheckpoint(t *testing.T) {
	m := Mission{Duration: 10 * year, TempK: 350, Checkpoints: 1}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	ts := m.CheckpointTimes()
	if len(ts) != 1 || ts[0] != 10*year {
		t.Fatalf("CheckpointTimes = %v, want [%g]", ts, 10*year)
	}
	s := ampSim("90nm", 4)
	res, err := s.RunCtx(context.Background(), 6, m)
	if err != nil {
		t.Fatal(err)
	}
	// t=0 prepended plus the single end-of-life checkpoint.
	if len(res.Times) != 2 || len(res.Yield) != 2 {
		t.Errorf("got %d times / %d yields, want 2/2", len(res.Times), len(res.Yield))
	}
}

// Regression: YieldAt on an empty result used to index out of range.
func TestYieldAtEmptyResult(t *testing.T) {
	empty := &Result{}
	if got := empty.YieldAt(5); got != (variation.YieldEstimate{}) {
		t.Errorf("YieldAt on empty result = %+v, want zero estimate", got)
	}
}

// A cancelled run must not burn meaningful wall time after the deadline.
func TestRunCtxDeadlineStopsPromptly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	s := ampSim("65nm", 8)
	start := time.Now()
	res, err := s.RunCtx(ctx, 100000, Mission{Duration: 20 * year, TempK: 400, Checkpoints: 8})
	if !errors.Is(err, variation.ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled run took %v to stop", elapsed)
	}
	if res.Cancelled == 0 {
		t.Error("deadline left no trials cancelled")
	}
	if res.Telemetry.Completed+res.Cancelled != 100000 {
		t.Errorf("accounting leak: completed %d + cancelled %d != 100000",
			res.Telemetry.Completed, res.Cancelled)
	}
}
