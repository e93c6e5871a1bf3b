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

// runCampaign runs a full-range campaign of n trials.
func runCampaign(ctx context.Context, n int, seed uint64, trial Trial) (*MCResult, error) {
	c := Campaign{Trials: n, Seed: seed, Trial: trial}
	return c.Run(ctx)
}

func TestMonteCarloPanicIsolated(t *testing.T) {
	trial := func(rng *mathx.RNG, i int) (float64, error) {
		if i%7 == 0 {
			panic(fmt.Sprintf("model blew up on trial %d", i))
		}
		return float64(i), nil
	}
	res, err := runCampaign(context.Background(), 50, 1, trial)
	if err != nil {
		t.Fatal(err)
	}
	wantPanics := 8 // i = 0, 7, 14, ..., 49
	if res.Failures != wantPanics || res.Stats.ByKind["panic"] != wantPanics {
		t.Fatalf("failures=%d by kind %v, want %d panics", res.Failures, res.Stats.ByKind, wantPanics)
	}
	if n := int(res.Stats.Moments.Count); n != 50-wantPanics {
		t.Errorf("values=%d, want %d", n, 50-wantPanics)
	}
	if res.Cancelled != 0 {
		t.Errorf("no cancellation happened, got Cancelled=%d", res.Cancelled)
	}
	if want := "trial 0 [trial]: panic: model blew up on trial 0"; res.Stats.First != want {
		t.Errorf("first failure %q, want %q", res.Stats.First, want)
	}
	if res.Elapsed <= 0 {
		t.Error("run elapsed time not recorded")
	}
	// Each panicking trial's slot holds a structured record of it, with
	// the stack captured at recovery.
	sc := newTrialScratch(50)
	slots := runChunkTrials(context.Background(), mathx.NewRNG(1), 0, 50, trial, nil, sc)
	for i, sl := range slots {
		if (sl.err != nil) != (i%7 == 0) {
			t.Fatalf("trial %d: error %v", i, sl.err)
		}
		if sl.err == nil {
			continue
		}
		if sl.err.Index != i || sl.err.Kind() != FailPanic {
			t.Errorf("trial %d: structured error %v classified as %v", i, sl.err, sl.err.Kind())
		}
		var pe *PanicError
		if !errors.As(sl.err, &pe) {
			t.Fatalf("cause of %v is not a *PanicError", sl.err)
		}
	}
	// The scratch is reused chunk after chunk: a chunk cancelled before
	// any dispatch leaves every slot unrun, never holding the outcome of
	// the chunk the scratch ran before.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	slots = runChunkTrials(ctx, mathx.NewRNG(1), 50, 100, trial, nil, sc)
	if len(slots) != 50 {
		t.Fatalf("cancelled chunk returned %d slots, want 50", len(slots))
	}
	for i, sl := range slots {
		if sl != (trialSlot{}) {
			t.Fatalf("trial %d of a chunk cancelled before dispatch: slot %+v, want unrun", 50+i, sl)
		}
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
	res, err := runCampaign(ctx, n, 1, func(rng *mathx.RNG, i int) (float64, error) {
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
	if got := int(res.Stats.Moments.Count) + res.NaNs + res.Failures + res.Cancelled; got != n {
		t.Errorf("accounting leak: %d values + %d NaNs + %d failures + %d cancelled != %d",
			res.Stats.Moments.Count, res.NaNs, res.Failures, res.Cancelled, n)
	}
	if res.Completed() != n-res.Cancelled {
		t.Errorf("Completed() = %d, want %d", res.Completed(), n-res.Cancelled)
	}
	if got := res.Stats.ByKind["cancelled"]; got != res.Failures {
		t.Errorf("%d of %d trials aborted by ctx classified as cancelled (%v)", got, res.Failures, res.Stats.ByKind)
	}
}

func TestMonteCarloDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	res, err := runCampaign(ctx, 100000, 1, func(rng *mathx.RNG, i int) (float64, error) {
		time.Sleep(200 * time.Microsecond)
		return 1, nil
	})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("deadline run returned %v, want ErrCancelled", err)
	}
	if res.Cancelled == 0 {
		t.Error("deadline left no trials cancelled")
	}
	if got := int(res.Stats.Moments.Count) + res.NaNs + res.Failures + res.Cancelled; got != res.N {
		t.Errorf("accounting leak: %d != %d", got, res.N)
	}
}

// Regression: a run in which every trial failed must degrade to NaN
// statistics instead of panicking.
func TestMCResultEmptyValuesConsistentNaN(t *testing.T) {
	res, err := runCampaign(context.Background(), 10, 1, func(rng *mathx.RNG, i int) (float64, error) {
		return 0, errors.New("all dies dead")
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Moments.Count != 0 || res.Failures != 10 {
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
	res, err := runCampaign(context.Background(), 10, 1, func(rng *mathx.RNG, i int) (float64, error) {
		if i < 3 {
			return 0, fmt.Errorf("op: %w", circuit.ErrNoConvergence)
		}
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := res.Stats.ByKind
	if kinds["convergence"] != 3 || len(kinds) != 1 {
		t.Errorf("ByKind = %v, want 3 convergence failures", kinds)
	}
}
