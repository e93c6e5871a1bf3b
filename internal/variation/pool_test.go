package variation

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/aging"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
)

// poolTestBuild returns a Build for a small PMOS-loaded current mirror
// and a counter of its calls.
func poolTestBuild(tech *device.Technology) (func() (*circuit.Circuit, error), *atomic.Int64) {
	var calls atomic.Int64
	return func() (*circuit.Circuit, error) {
		calls.Add(1)
		c := circuit.New()
		c.AddVSource("VDD", "vdd", "0", circuit.DC(tech.VDD))
		c.AddResistor("R1", "vdd", "g", 20e3)
		c.AddMOSFET("M1", "g", "g", "0", "0", device.NewMosfet(tech.NMOSParams(1e-6, 2*tech.Lmin, 300)))
		c.AddMOSFET("M2", "d", "g", "0", "0", device.NewMosfet(tech.NMOSParams(2e-6, 2*tech.Lmin, 300)))
		c.AddMOSFET("M3", "d", "d", "vdd", "vdd", device.NewMosfet(tech.PMOSParams(4e-6, 3*tech.Lmin, 300)))
		return c, nil
	}, &calls
}

// TestDiePoolReuseMatchesFreshBuild ages a pooled die through a mission,
// returns it, and checks the reused die then solves a new trial to the
// same solution vector with the same Newton iteration count as a freshly
// built one: the restore must reach exactly the as-built state, with and
// without a warm-start guess.
func TestDiePoolReuseMatchesFreshBuild(t *testing.T) {
	tech := device.MustTech("65nm")
	build, _ := poolTestBuild(tech)
	nominal, _ := build()
	sol, err := nominal.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range []bool{true, false} {
		pool := &DiePool{Build: build}
		var guess []float64
		if warm {
			pool.WarmStart()
			guess = sol.X
		}
		die, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		ApplyRandomMismatch(die.Circuit, tech, NominalCorner(), mathx.NewRNG(1))
		ager := aging.NewCircuitAger(die.Circuit, aging.DefaultModels(), 400, 3)
		if _, err := ager.AgeToCtx(context.Background(), aging.LogCheckpoints(3600, 3e8, 6)); err != nil {
			t.Fatal(err)
		}
		aged := false
		for _, m := range die.Circuit.MOSFETList() {
			aged = aged || m.Dev.Damage.DeltaVT != 0
		}
		if !aged {
			t.Fatal("mission left no damage: the test would not exercise the restore")
		}
		pool.Put(die)

		trial := func(c *circuit.Circuit) ([]float64, int64) {
			ApplyRandomMismatch(c, tech, NominalCorner(), mathx.NewRNG(2))
			n0 := c.NewtonIterations()
			sol, err := c.OperatingPoint()
			if err != nil {
				t.Fatal(err)
			}
			return sol.X, c.NewtonIterations() - n0
		}
		reused, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		if reused != die {
			t.Fatal("pool built a new die instead of reusing the returned one")
		}
		gotX, gotN := trial(reused.Circuit)

		fresh, _ := build()
		if guess != nil {
			if err := fresh.SetInitialGuess(guess); err != nil {
				t.Fatal(err)
			}
		}
		wantX, wantN := trial(fresh)
		if gotN != wantN {
			t.Errorf("guess=%t: reused die took %d Newton iterations, fresh build %d", guess != nil, gotN, wantN)
		}
		for i := range wantX {
			if math.Float64bits(gotX[i]) != math.Float64bits(wantX[i]) {
				t.Fatalf("guess=%t: X[%d] = %v on the reused die, %v on a fresh build", guess != nil, i, gotX[i], wantX[i])
			}
		}
	}
}

// TestDiePoolBuildPanic checks a panicking Build comes back as a
// *PanicError and leaves the pool serving dies.
func TestDiePoolBuildPanic(t *testing.T) {
	tech := device.MustTech("90nm")
	build, _ := poolTestBuild(tech)
	var calls atomic.Int64
	pool := &DiePool{Build: func() (*circuit.Circuit, error) {
		if calls.Add(1) == 1 {
			panic("fab line on fire")
		}
		return build()
	}}
	if _, err := pool.Get(); err == nil {
		t.Fatal("panicking Build returned no error")
	} else if pe := (*PanicError)(nil); !errors.As(err, &pe) {
		t.Fatalf("got %v, want a *PanicError", err)
	}
	die, err := pool.Get()
	if err != nil {
		t.Fatalf("pool unusable after a Build panic: %v", err)
	}
	pool.Put(die)
	if again, err := pool.Get(); err != nil || again != die {
		t.Fatalf("returned die not reused after a Build panic: %v", err)
	}
}

// TestDiePoolConcurrent hammers one pool from several goroutines (run it
// under -race): every die handed out is private to its taker until Put,
// and with no failed trials the pool builds at most one die per worker.
func TestDiePoolConcurrent(t *testing.T) {
	tech := device.MustTech("90nm")
	build, calls := poolTestBuild(tech)
	pool := &DiePool{Build: build}
	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				die, err := pool.Get()
				if err != nil {
					t.Error(err)
					return
				}
				ApplyRandomMismatch(die.Circuit, tech, NominalCorner(), mathx.NewRNG(uint64(w*perWorker+i)))
				if _, err := die.Circuit.OperatingPoint(); err != nil {
					t.Error(err)
					return
				}
				pool.Put(die)
			}
		}(w)
	}
	wg.Wait()
	if got := calls.Load(); got < 1 || got > workers {
		t.Errorf("%d builds for %d trials on %d workers, want 1..%d", got, workers*perWorker, workers, workers)
	}
}

// TestDiePoolWarmGetPutAllocs pins the hot path: once the pool holds a
// die, a Get/Put pair allocates nothing.
func TestDiePoolWarmGetPutAllocs(t *testing.T) {
	tech := device.MustTech("90nm")
	build, _ := poolTestBuild(tech)
	pool := &DiePool{Build: build}
	pool.WarmStart()
	allocs := testing.AllocsPerRun(100, func() {
		d, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(d)
	})
	if allocs != 0 {
		t.Errorf("warm Get/Put allocated %v times per pair, want 0", allocs)
	}
}

// panicWave is a source waveform that panics when evaluated, so the first
// solve of a circuit that uses it panics.
type panicWave struct{}

func (panicWave) At(float64) float64 { panic("source on fire") }

// TestDiePoolWarmStart checks WarmStart leaves its solved die in the pool,
// seeded with the nominal solution, and that a panicking solve only costs
// the warm start.
func TestDiePoolWarmStart(t *testing.T) {
	tech := device.MustTech("90nm")
	build, calls := poolTestBuild(tech)
	nominal, _ := build()
	sol, err := nominal.OperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	pool := &DiePool{Build: build}
	pool.WarmStart()
	die, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("WarmStart and Get built %d dies, want 1", got)
	}
	for _, node := range []string{"g", "d"} {
		if got, want := die.Circuit.Voltage(node), sol.Voltage(node); got != want {
			t.Errorf("V(%s) seeded at %g, want the nominal %g", node, got, want)
		}
	}

	panicky := &DiePool{Build: func() (*circuit.Circuit, error) {
		c := circuit.New()
		c.AddVSource("V1", "a", "0", panicWave{})
		c.AddResistor("R1", "a", "0", 1e3)
		return c, nil
	}}
	panicky.WarmStart()
	if panicky.guess != nil {
		t.Error("a panicking solve left a warm-start guess")
	}
}
