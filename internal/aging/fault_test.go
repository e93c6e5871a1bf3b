package aging

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/device"
)

// Regression: AgeTo used to step devices in map-iteration order; it must
// produce bit-identical trajectories and damage run-to-run.
func TestAgeToDeterministicTrajectories(t *testing.T) {
	tech := device.MustTech("65nm")
	checkpoints := LogCheckpoints(3600, 3.15e8, 8)
	run := func(seed uint64) ([]Checkpoint, map[string]device.Damage) {
		c := mirrorCircuit(tech)
		ager := NewCircuitAger(c, DefaultModels(), 360, seed)
		traj, err := ager.AgeToCtx(context.Background(), checkpoints)
		if err != nil {
			t.Fatal(err)
		}
		dmg := make(map[string]device.Damage)
		for _, m := range c.MOSFETList() {
			dmg[m.Name()] = m.Dev.Damage
		}
		return traj, dmg
	}
	trajA, dmgA := run(7)
	trajB, dmgB := run(7)
	if len(trajA) != len(trajB) {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(trajA), len(trajB))
	}
	for i := range trajA {
		if trajA[i].Failed != trajB[i].Failed || trajA[i].Time != trajB[i].Time {
			t.Fatalf("checkpoint %d metadata differs", i)
		}
		if trajA[i].Failed {
			continue
		}
		for j := range trajA[i].Solution.X {
			if trajA[i].Solution.X[j] != trajB[i].Solution.X[j] {
				t.Fatalf("solution differs at checkpoint %d, unknown %d", i, j)
			}
		}
	}
	for name, d := range dmgA {
		if dmgB[name] != d {
			t.Fatalf("damage on %s differs between identical runs", name)
		}
	}
}

// Regression: LogCheckpoints(_, _, 1) used to panic inside mathx.Logspace.
func TestLogCheckpointsDegenerate(t *testing.T) {
	if got := LogCheckpoints(1, 100, 1); len(got) != 1 || got[0] != 100 {
		t.Errorf("LogCheckpoints n=1 = %v, want [100]", got)
	}
	if got := LogCheckpoints(1, 100, 0); got != nil {
		t.Errorf("LogCheckpoints n=0 = %v, want nil", got)
	}
	if got := LogCheckpoints(1, 100, 3); len(got) != 3 || math.Abs(got[2]-100) > 1e-9 {
		t.Errorf("LogCheckpoints n=3 = %v", got)
	}
}

func TestAgeToCtxCancelledReturnsPartial(t *testing.T) {
	tech := device.MustTech("90nm")
	c := mirrorCircuit(tech)
	ager := NewCircuitAger(c, DefaultModels(), 350, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	traj, err := ager.AgeToCtx(ctx, LogCheckpoints(3600, 3.15e8, 6))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The fresh t=0 point was already solved before the first cancellation
	// check; the partial trajectory must carry it.
	if len(traj) != 1 || traj[0].Time != 0 || traj[0].Failed {
		t.Errorf("partial trajectory = %+v, want just the fresh point", traj)
	}
}
