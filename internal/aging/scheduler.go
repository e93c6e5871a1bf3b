package aging

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
	"repro/internal/obs"
)

// Stress is the per-device stress condition over one aging interval,
// extracted from simulation.
type Stress struct {
	// Vgs, Vds, Vbs are representative terminal biases in volts.
	Vgs, Vds, Vbs float64
	// Duty is the fraction of the interval the device spends under gate
	// stress (1 for DC-biased analog branches).
	Duty float64
	// TempK is the junction temperature.
	TempK float64
}

// Models bundles the degradation mechanisms applied during aging. Nil
// members disable the mechanism.
type Models struct {
	NBTI *NBTIModel
	HCI  *HCIModel
	TDDB *TDDBModel
}

// DefaultModels enables all three mechanisms at default calibration.
func DefaultModels() Models {
	return Models{NBTI: DefaultNBTI(), HCI: DefaultHCI(), TDDB: DefaultTDDB()}
}

// DeviceAger accumulates wear for a single MOSFET across aging steps with
// time-varying stress.
type DeviceAger struct {
	models Models
	dev    *device.Mosfet

	nbtiShift float64 // recoverable+permanent envelope under current duty
	hciShift  float64
	tddb      *TDDBState
	elapsed   float64
}

// NewDeviceAger creates the wear tracker for dev; rng seeds the TDDB
// percolation draw.
func NewDeviceAger(models Models, dev *device.Mosfet, rng *mathx.RNG) *DeviceAger {
	a := &DeviceAger{models: models, dev: dev}
	if models.TDDB != nil {
		area := dev.Params.W * dev.Params.L
		a.tddb = models.TDDB.NewTDDBState(area, dev.Params.Tox*1e9, rng)
	}
	return a
}

// Step ages the device by dt seconds under the given stress and installs
// the resulting Damage on the device model.
func (a *DeviceAger) Step(stress Stress, dt float64) device.Damage {
	if dt < 0 {
		panic(fmt.Sprintf("aging: negative dt %g", dt))
	}
	m := met.Load()
	if m != nil {
		m.steps.Inc()
	}
	a.elapsed += dt
	isPMOS := a.dev.Params.Type == device.PMOS
	eox := a.dev.OxideField(stress.Vgs)
	duty := stress.Duty
	if duty <= 0 {
		duty = 0
	}

	// NBTI: negative gate bias on pMOS (flipped-space |vgs| with the gate
	// pulled below the source). nMOS PBTI exists but is far weaker; derate.
	if a.models.NBTI != nil {
		var sp obs.Span
		if m != nil {
			sp = obs.StartSpan(m.nbtiSeconds)
		}
		a.stepNBTI(stress, dt, eox, duty, isPMOS)
		sp.End()
	}

	// HCI: saturation stress with channel current flowing. The effective
	// lateral field follows |vds|.
	if a.models.HCI != nil && math.Abs(stress.Vds) > 0.1 && duty > 0 {
		var sp obs.Span
		if m != nil {
			sp = obs.StartSpan(m.hciSeconds)
		}
		em := a.dev.LateralField(stress.Vds)
		qi := a.dev.InversionCharge(stress.Vgs)
		k := a.models.HCI.Prefactor(qi, eox, em, stress.TempK, isPMOS)
		a.hciShift = advancePowerLaw(a.hciShift, k, a.models.HCI.N, duty*dt)
		sp.End()
	}

	// TDDB: the vertical field wears the oxide whenever the gate is
	// biased; duty scales the exposure time.
	if a.tddb != nil && duty > 0 {
		var sp obs.Span
		if m != nil {
			sp = obs.StartSpan(m.tddbSeconds)
		}
		area := a.dev.Params.W * a.dev.Params.L
		a.models.TDDB.Advance(a.tddb, duty*dt, eox, stress.TempK, area)
		sp.End()
	}

	dmg := a.damage()
	a.dev.Damage = dmg
	if m != nil {
		m.deltaVT.Set(dmg.DeltaVT)
	}
	return dmg
}

// stepNBTI advances the NBTI envelope for one interval (split out so the
// per-mechanism timing span wraps exactly the mechanism's work).
func (a *DeviceAger) stepNBTI(stress Stress, dt, eox, duty float64, isPMOS bool) {
	factor := 1.0
	gateStressed := false
	if isPMOS && stress.Vgs < -0.05 {
		gateStressed = true
	} else if !isPMOS && stress.Vgs > 0.05 {
		gateStressed = true
		factor = 0.1 // PBTI derating on nMOS
	}
	if gateStressed && duty > 0 {
		k := a.models.NBTI.prefactor(eox, stress.TempK) * factor
		// AC correction folds the per-cycle relaxation depth into the
		// effective prefactor (see ShiftAC).
		if duty < 1 {
			xi := (1 - duty) / duty
			r := 1 / (1 + a.models.NBTI.RelaxB*math.Pow(xi, a.models.NBTI.RelaxBeta))
			k *= a.models.NBTI.PermFrac + (1-a.models.NBTI.PermFrac)*r
		}
		a.nbtiShift = advancePowerLaw(a.nbtiShift, k, a.models.NBTI.N, duty*dt)
	}
}

// damage composes the current degradation state into a device.Damage.
func (a *DeviceAger) damage() device.Damage {
	d := device.FreshDamage()
	d.DeltaVT = a.nbtiShift + a.hciShift
	if a.models.NBTI != nil {
		d.MobilityFactor *= a.models.NBTI.MobilityFactor(a.nbtiShift)
	}
	if a.models.HCI != nil {
		d.MobilityFactor *= a.models.HCI.MobilityFactor(a.hciShift)
		d.LambdaFactor *= a.models.HCI.LambdaFactor(a.hciShift)
	}
	if a.tddb != nil {
		d.MobilityFactor *= a.tddb.MobilityFactor()
		d.GateLeak += a.tddb.Leak()
	}
	return d
}

// BDMode returns the present oxide-breakdown mode (Fresh when TDDB is
// disabled).
func (a *DeviceAger) BDMode() BDMode {
	if a.tddb == nil {
		return Fresh
	}
	return a.tddb.Mode
}

// Shifts returns the separate NBTI and HCI threshold-shift components.
func (a *DeviceAger) Shifts() (nbti, hci float64) { return a.nbtiShift, a.hciShift }

// CircuitAger runs the full simulate→stress→degrade loop over a circuit.
type CircuitAger struct {
	Circuit *circuit.Circuit
	Models  Models
	// TempK is the mission junction temperature.
	TempK float64
	// DutyOverride, when non-nil, maps device name to stress duty factor
	// (for switched circuits whose duty is known by construction).
	DutyOverride map[string]float64
	// OnCheckpoint, when non-nil, is called synchronously from AgeToCtx
	// after each checkpoint solve with the count of mission checkpoints
	// completed so far (1-based, excluding the t=0 snapshot) and the
	// checkpoint just produced. It is a progress tap for long missions —
	// the job server streams these as events; it must not mutate the
	// circuit.
	OnCheckpoint func(done int, cp Checkpoint)

	devs  []*circuit.MOSFET // the circuit's name-sorted MOSFETList, shared
	agers []*DeviceAger     // agers[i] tracks devs[i]
}

// NewCircuitAger prepares agers for every MOSFET in the circuit. seed fixes
// the TDDB percolation draws, so a given (circuit, seed) ages identically
// on every run.
func NewCircuitAger(c *circuit.Circuit, models Models, tempK float64, seed uint64) *CircuitAger {
	root := mathx.NewRNG(seed)
	devs := c.MOSFETList()
	a := &CircuitAger{
		Circuit: c, Models: models, TempK: tempK,
		devs: devs, agers: make([]*DeviceAger, len(devs)),
	}
	for i, m := range devs {
		a.agers[i] = NewDeviceAger(models, m.Dev, root.Split(uint64(i)))
	}
	return a
}

// Ager returns the named device's wear tracker (nil if the circuit had no
// such MOSFET when the ager was built).
func (a *CircuitAger) Ager(name string) *DeviceAger {
	i, ok := slices.BinarySearchFunc(a.devs, name, func(m *circuit.MOSFET, n string) int {
		return strings.Compare(m.Name(), n)
	})
	if !ok {
		return nil
	}
	return a.agers[i]
}

// Step ages every device by dt seconds, in name order, under the DC
// stress of the circuit's last converged solution: each device's
// captured bias at duty 1 and TempK, with DutyOverride applied. It
// allocates nothing.
func (a *CircuitAger) Step(dt float64) {
	for i, m := range a.devs {
		vgs, vds, vbs := m.BiasVoltages()
		s := Stress{Vgs: vgs, Vds: vds, Vbs: vbs, Duty: 1, TempK: a.TempK}
		if d, ok := a.DutyOverride[m.Name()]; ok {
			s.Duty = d
		}
		a.agers[i].Step(s, dt)
	}
}

// Checkpoint is one point of an aging trajectory.
type Checkpoint struct {
	// Time is the cumulative mission time in seconds.
	Time float64
	// Solution is the operating point at that age (nil if the circuit no
	// longer converges — a hard functional failure).
	Solution *circuit.Solution
	// Failed marks convergence failure.
	Failed bool
}

// AgeToCtx ages the circuit from its current state through the given
// checkpoint times (strictly increasing, seconds). At each checkpoint the
// operating point is re-solved, stress re-extracted, and all devices aged
// over the next interval; the returned trajectory has one entry per
// checkpoint. Cancellation is checked before every checkpoint, and a
// cancelled run returns the partial trajectory computed so far alongside
// an error wrapping ctx.Err(). Devices are stepped in sorted name order
// so a given (circuit, seed, checkpoints) ages identically run-to-run.
func (a *CircuitAger) AgeToCtx(ctx context.Context, checkpoints []float64) ([]Checkpoint, error) {
	if len(checkpoints) == 0 {
		return nil, fmt.Errorf("aging: no checkpoints")
	}
	for i := 1; i < len(checkpoints); i++ {
		if checkpoints[i] <= checkpoints[i-1] {
			return nil, fmt.Errorf("aging: checkpoints not increasing at %d", i)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	traj := make([]Checkpoint, 0, len(checkpoints)+1)
	sol, err := a.Circuit.OperatingPoint()
	if err != nil {
		return nil, fmt.Errorf("aging: fresh operating point: %w", err)
	}
	traj = append(traj, Checkpoint{Time: 0, Solution: sol})

	prev := 0.0
	for ck, t := range checkpoints {
		if err := ctx.Err(); err != nil {
			return traj, fmt.Errorf("aging: cancelled at t=%g: %w", prev, err)
		}
		a.Step(t - prev)
		prev = t
		if m := met.Load(); m != nil {
			m.checkpoints.Inc()
		}
		cp := Checkpoint{Time: t}
		if sol, err := a.Circuit.OperatingPoint(); err != nil {
			cp.Failed = true
		} else {
			cp.Solution = sol
		}
		traj = append(traj, cp)
		if a.OnCheckpoint != nil {
			a.OnCheckpoint(ck+1, cp)
		}
	}
	return traj, nil
}

// LogCheckpoints returns n log-spaced aging checkpoints from tFirst to
// tEnd — the right spacing for power-law degradation, where early decades
// matter as much as late ones. n == 1 degenerates to the single point
// tEnd (there is no spacing to choose); n < 1 returns nil.
func LogCheckpoints(tFirst, tEnd float64, n int) []float64 {
	if n < 1 {
		return nil
	}
	if n == 1 {
		return []float64{tEnd}
	}
	return mathx.Logspace(tFirst, tEnd, n)
}

// LinCheckpoints returns n linearly spaced checkpoints ending at tEnd
// (starting at tEnd/n).
func LinCheckpoints(tEnd float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = tEnd * float64(i+1) / float64(n)
	}
	return out
}
