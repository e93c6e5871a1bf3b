package variation

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/circuit"
)

// FailureKind classifies why a trial produced no value. Large-scale
// failure-probability studies need the distinction: a convergence failure
// is a property of the sampled die (and may itself be the failure signal),
// a model panic is a bug to fix, and a cancelled trial is missing data
// that must not bias the estimate.
type FailureKind int

const (
	// FailOther is an unclassified trial error (bad topology, user error).
	FailOther FailureKind = iota
	// FailConvergence is a solver convergence failure (Newton, singular
	// MNA matrix) — the sampled die could not be biased.
	FailConvergence
	// FailPanic is a model panic recovered inside a worker goroutine.
	FailPanic
	// FailCancelled marks work abandoned because the run's context was
	// cancelled or timed out.
	FailCancelled
)

// String names the kind for reports.
func (k FailureKind) String() string {
	switch k {
	case FailConvergence:
		return "convergence"
	case FailPanic:
		return "panic"
	case FailCancelled:
		return "cancelled"
	default:
		return "other"
	}
}

// ErrCancelled is the sentinel wrapped by every error a run returns when
// it is stopped early by context cancellation or deadline. Callers test
// with errors.Is and still receive the partial result alongside it.
var ErrCancelled = errors.New("variation: run cancelled")

// PanicError carries a panic recovered from a worker goroutine. It
// converts a crash of one trial into data the run can account for.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
}

// Error formats the panic value.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// TrialError is the structured failure record of a single trial: which
// trial, which phase of the pipeline, and the underlying cause.
type TrialError struct {
	// Index is the trial index in [0, N).
	Index int
	// Phase names the pipeline stage that failed: "build", "mismatch",
	// "age", "measure", or "trial" when the stage is opaque.
	Phase string
	// Cause is the underlying error (possibly a *PanicError).
	Cause error
}

// Error formats the record as "trial 17 [measure]: <cause>".
func (e *TrialError) Error() string {
	return fmt.Sprintf("trial %d [%s]: %v", e.Index, e.Phase, e.Cause)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *TrialError) Unwrap() error { return e.Cause }

// Kind classifies the cause.
func (e *TrialError) Kind() FailureKind { return ClassifyFailure(e.Cause) }

// ClassifyFailure maps an arbitrary trial error onto the failure
// taxonomy. It understands context cancellation, recovered panics and the
// circuit solver's convergence sentinels; everything else is FailOther.
func ClassifyFailure(err error) FailureKind {
	switch {
	case err == nil:
		return FailOther
	case errors.Is(err, ErrCancelled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return FailCancelled
	case errors.Is(err, circuit.ErrNoConvergence),
		errors.Is(err, circuit.ErrSingular):
		return FailConvergence
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return FailPanic
	}
	return FailOther
}

// CountByKind tallies structured trial errors by failure kind.
func CountByKind(errs []*TrialError) map[FailureKind]int {
	if len(errs) == 0 {
		return nil
	}
	out := make(map[FailureKind]int)
	for _, e := range errs {
		out[e.Kind()]++
	}
	return out
}

// CountByPhase tallies structured trial errors by pipeline phase.
func CountByPhase(errs []*TrialError) map[string]int {
	if len(errs) == 0 {
		return nil
	}
	out := make(map[string]int)
	for _, e := range errs {
		out[e.Phase]++
	}
	return out
}
