package variation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/mathx"
)

func TestMonteCarloPanicIsolated(t *testing.T) {
	res, err := MonteCarloCtx(context.Background(), 50, 1, func(rng *mathx.RNG, i int) (float64, error) {
		if i%7 == 0 {
			panic(fmt.Sprintf("model blew up on trial %d", i))
		}
		return float64(i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantPanics := 8 // i = 0, 7, 14, ..., 49
	if res.Failures != wantPanics || len(res.Errors) != wantPanics {
		t.Fatalf("failures=%d errors=%d, want %d", res.Failures, len(res.Errors), wantPanics)
	}
	if len(res.Values) != 50-wantPanics {
		t.Errorf("values=%d, want %d", len(res.Values), 50-wantPanics)
	}
	if res.Cancelled != 0 {
		t.Errorf("no cancellation happened, got Cancelled=%d", res.Cancelled)
	}
	for _, te := range res.Errors {
		if te.Index%7 != 0 {
			t.Errorf("structured error has wrong trial index %d", te.Index)
		}
		if te.Kind() != FailPanic {
			t.Errorf("panic classified as %v", te.Kind())
		}
		var pe *PanicError
		if !errors.As(te, &pe) {
			t.Fatalf("cause of %v is not a *PanicError", te)
		}
		if len(pe.Stack) == 0 {
			t.Error("recovered panic lost its stack")
		}
	}
	if kinds := res.ErrorsByKind(); kinds[FailPanic] != wantPanics {
		t.Errorf("ErrorsByKind = %v", kinds)
	}
	if res.Elapsed <= 0 {
		t.Error("run elapsed time not recorded")
	}
}

func TestMonteCarloCancellationReturnsPartial(t *testing.T) {
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(5*time.Millisecond, cancel)
	// Every dispatched trial blocks until cancellation, so only a handful
	// (at most the worker count) ever executes and the rest must be
	// accounted as Cancelled.
	res, err := MonteCarloCtx(ctx, n, 1, func(rng *mathx.RNG, i int) (float64, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled run returned %v, want ErrCancelled", err)
	}
	if res == nil {
		t.Fatal("cancelled run must still return the partial result")
	}
	if res.Cancelled == 0 {
		t.Error("no trials accounted as cancelled")
	}
	if got := len(res.Values) + res.NaNs + res.Failures + res.Cancelled; got != n {
		t.Errorf("accounting leak: %d values + %d NaNs + %d failures + %d cancelled != %d",
			len(res.Values), res.NaNs, res.Failures, res.Cancelled, n)
	}
	if res.Completed() != n-res.Cancelled {
		t.Errorf("Completed() = %d, want %d", res.Completed(), n-res.Cancelled)
	}
	for _, te := range res.Errors {
		if te.Kind() != FailCancelled {
			t.Errorf("trial aborted by ctx classified as %v", te.Kind())
		}
	}
}

func TestMonteCarloDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	res, err := MonteCarloCtx(ctx, 100000, 1, func(rng *mathx.RNG, i int) (float64, error) {
		time.Sleep(200 * time.Microsecond)
		return 1, nil
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("deadline run returned %v, want ErrCancelled", err)
	}
	if res.Cancelled == 0 {
		t.Error("deadline left no trials cancelled")
	}
	if got := len(res.Values) + res.NaNs + res.Failures + res.Cancelled; got != res.N {
		t.Errorf("accounting leak: %d != %d", got, res.N)
	}
}

// Regression: a run in which every trial failed must degrade to NaN
// statistics instead of panicking.
func TestMCResultEmptyValuesConsistentNaN(t *testing.T) {
	res, err := MonteCarloCtx(context.Background(), 10, 1, func(rng *mathx.RNG, i int) (float64, error) {
		return 0, errors.New("all dies dead")
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 0 || res.Failures != 10 {
		t.Fatalf("unexpected accounting: %+v", res)
	}
	if !math.IsNaN(res.Mean()) {
		t.Error("Mean of empty values must be NaN")
	}
	if !math.IsNaN(res.StdDev()) {
		t.Error("StdDev of empty values must be NaN")
	}
}

func TestClassifyFailure(t *testing.T) {
	cases := []struct {
		err  error
		want FailureKind
	}{
		{nil, FailOther},
		{errors.New("anything"), FailOther},
		{circuit.ErrNoConvergence, FailConvergence},
		{fmt.Errorf("trial: %w", circuit.ErrSingular), FailConvergence},
		{&PanicError{Value: "boom"}, FailPanic},
		{fmt.Errorf("wrap: %w", &PanicError{Value: 3}), FailPanic},
		{context.Canceled, FailCancelled},
		{context.DeadlineExceeded, FailCancelled},
		{fmt.Errorf("run: %w", ErrCancelled), FailCancelled},
	}
	for _, c := range cases {
		if got := ClassifyFailure(c.err); got != c.want {
			t.Errorf("ClassifyFailure(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	for k, want := range map[FailureKind]string{
		FailOther: "other", FailConvergence: "convergence",
		FailPanic: "panic", FailCancelled: "cancelled",
	} {
		if k.String() != want {
			t.Errorf("FailureKind(%d).String() = %q", k, k.String())
		}
	}
}

func TestTrialErrorFormatAndUnwrap(t *testing.T) {
	cause := circuit.ErrNoConvergence
	te := &TrialError{Index: 17, Phase: "measure", Cause: cause}
	if !errors.Is(te, circuit.ErrNoConvergence) {
		t.Error("TrialError must unwrap to its cause")
	}
	if te.Error() != "trial 17 [measure]: circuit: operating point did not converge" {
		t.Errorf("unexpected format %q", te.Error())
	}
	if te.Kind() != FailConvergence {
		t.Errorf("kind = %v", te.Kind())
	}
}

// Trials returning the solver's convergence sentinel must classify as
// convergence failures in the structured accounting.
func TestMonteCarloConvergenceClassification(t *testing.T) {
	res, err := MonteCarloCtx(context.Background(), 10, 1, func(rng *mathx.RNG, i int) (float64, error) {
		if i < 3 {
			return 0, fmt.Errorf("op: %w", circuit.ErrNoConvergence)
		}
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := res.ErrorsByKind()
	if kinds[FailConvergence] != 3 {
		t.Errorf("ErrorsByKind = %v, want 3 convergence failures", kinds)
	}
}
