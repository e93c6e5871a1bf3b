package aging

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"testing"

	"repro/internal/circuit"
	"repro/internal/netlist"
)

// otaAger parses the OTA example deck and wraps it in an ager at 400 K,
// seed 7, with every mechanism on.
func otaAger(t *testing.T) *CircuitAger {
	t.Helper()
	text, err := os.ReadFile("../../examples/ota_reliability/ota.sp")
	if err != nil {
		t.Fatal(err)
	}
	deck, err := netlist.Parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	return NewCircuitAger(deck.Circuit, DefaultModels(), 400, 7)
}

// trajectoryDigest hashes the float64 bits of every checkpoint time and
// solution vector, then every MOSFET's final damage in name order.
func trajectoryDigest(c *circuit.Circuit, traj []Checkpoint) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, cp := range traj {
		put(cp.Time)
		if cp.Solution != nil {
			for _, x := range cp.Solution.X {
				put(x)
			}
		}
	}
	for _, m := range c.MOSFETList() {
		d := m.Dev.Damage
		put(d.DeltaVT)
		put(d.MobilityFactor)
		put(d.LambdaFactor)
		put(d.GateLeak)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMultiDeviceAgingPins pins the multi-device aging trajectories of
// the OTA deck bit for bit: AgeToCtx with a per-device duty override,
// and a two-phase AgeProfile with a phase-local duty.
func TestMultiDeviceAgingPins(t *testing.T) {
	const (
		ageToPin   = "7b1c1ffcfa7ae4069245a2b62735b6c5a9902f3ccca5271569fa3f37775816c7"
		profilePin = "5b80a551abd9c4ef3dee3221185b630fa237366ab001fbf7d17572b2ddf5513c"
	)
	a := otaAger(t)
	a.DutyOverride = map[string]float64{"M3": 0.5}
	traj, err := a.AgeToCtx(context.Background(), LogCheckpoints(3600, 10*3.156e7, 8))
	if err != nil {
		t.Fatal(err)
	}
	if got := trajectoryDigest(a.Circuit, traj); got != ageToPin {
		t.Errorf("AgeToCtx digest = %s, want %s", got, ageToPin)
	}

	a = otaAger(t)
	traj, err = a.AgeProfile([]MissionPhase{
		{Duration: 1e7, TempK: 420, Checkpoints: 3, Duty: map[string]float64{"M5": 0.3}},
		{Duration: 3e8, TempK: 350, Checkpoints: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := trajectoryDigest(a.Circuit, traj); got != profilePin {
		t.Errorf("AgeProfile digest = %s, want %s", got, profilePin)
	}
}
