package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
)

// TestBatchedRunBitIdentical runs the golden amp90 campaign on one worker,
// so a single die serves all 64 trials (snapshot-restored damage, reset
// solver state, re-seeded guess), and on four. Both must reproduce the
// digest recorded when every trial built a fresh circuit — yield, failure
// times, moments and even the total Newton iteration count, which would
// drift if a reused die started from different solver state than a fresh
// build.
func TestBatchedRunBitIdentical(t *testing.T) {
	const want = "f1d3af582febe05e6637cd9d690920a57233a0d53659d5d1a5e7ecaac6513b0f"
	mission := Mission{Duration: 5 * year, TempK: 380, Checkpoints: 4}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		res, err := ampSim("90nm", 42).RunCtx(context.Background(), 64, mission)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if got := resultDigest(res); got != want {
			t.Errorf("GOMAXPROCS=%d: digest %s, want %s", procs, got, want)
		}
	}
}

// TestRunPoolsOneDiePerWorker counts Build calls: a run whose trials all
// succeed keeps each die for the whole run, so it builds at most one die
// per worker; the die solved for the warm-start guess is the first of
// them.
func TestRunPoolsOneDiePerWorker(t *testing.T) {
	s := fig3Sim()
	inner := s.Build
	var calls atomic.Int64
	s.Build = func() (*circuit.Circuit, error) {
		calls.Add(1)
		return inner()
	}
	const trials = 200
	res, err := s.RunCtx(context.Background(), trials, Mission{Duration: 3.156e8, TempK: 350, Checkpoints: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d trials errored, want a clean run", res.Errors)
	}
	if dies, workers := calls.Load(), int64(runtime.GOMAXPROCS(0)); dies < 1 || dies > workers {
		t.Errorf("%d dies built for %d trials on %d workers, want 1..%d", dies, trials, workers, workers)
	}
}

// TestBatchedRunSurvivesFailingBuild fails the first builds and checks
// each is recorded as that trial's error, and that the worker builds
// again for its next trial instead of wedging.
func TestBatchedRunSurvivesFailingBuild(t *testing.T) {
	s := ampSim("90nm", 7)
	inner := s.Build
	var mu sync.Mutex
	calls := 0
	s.Build = func() (*circuit.Circuit, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n <= 3 {
			return nil, errors.New("flaky fab")
		}
		return inner()
	}
	const trials = 12
	res, err := s.RunCtx(context.Background(), trials, Mission{Duration: year, TempK: 350, Checkpoints: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("no build failures recorded despite flaky Build")
	}
	if got := res.Errors + len(res.FailureTimes); got != trials {
		t.Fatalf("errors + verdicts = %d, want %d — a worker wedged after a build failure", got, trials)
	}
	for _, te := range res.TrialErrors {
		if te.Phase != "build" {
			t.Fatalf("unexpected error phase %q: %v", te.Phase, te)
		}
	}
}
