package variation

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/mathx"
)

// MismatchBatch holds pre-sampled local mismatch for every MOSFET of a
// circuit across a block of Monte-Carlo trials, structure-of-arrays style:
// one flat slice per mismatch component, indexed trial-major. It exists so
// a batched campaign can (a) resolve and sort the device list once per
// chunk instead of once per trial, and (b) separate sampling (which must
// consume the RNG stream in exactly ApplyRandomMismatch's order for
// reproducibility) from application (which touches the shared circuit and
// so must happen inside the trial's exclusive window).
type MismatchBatch struct {
	devs []*circuit.MOSFET
	tech *device.Technology
	n    int

	// Trial-major component arrays: entry t*len(devs)+d belongs to trial t,
	// device d (devices in the circuit's sorted-by-name order, matching
	// ApplyRandomMismatch's iteration order).
	deltaVT0   []float64
	betaFactor []float64
}

// NewMismatchBatch prepares a batch of trials local-mismatch samples for
// every MOSFET in c. The device list is captured (sorted by name) at
// construction; adding devices afterwards invalidates the batch.
func NewMismatchBatch(c *circuit.Circuit, tech *device.Technology, trials int) *MismatchBatch {
	if trials <= 0 {
		panic(fmt.Sprintf("variation: MismatchBatch needs trials > 0, got %d", trials))
	}
	devs := c.MOSFETList()
	return &MismatchBatch{
		devs:       devs,
		tech:       tech,
		n:          trials,
		deltaVT0:   make([]float64, trials*len(devs)),
		betaFactor: make([]float64, trials*len(devs)),
	}
}

// Trials returns the batch's trial capacity.
func (b *MismatchBatch) Trials() int { return b.n }

// Devices returns the number of MOSFETs the batch covers.
func (b *MismatchBatch) Devices() int { return len(b.devs) }

// SampleTrial draws trial t's mismatch for every device into the batch
// arrays, performing exactly the arithmetic of ApplyRandomMismatch — same
// device order, same per-device RNG consumption, same corner composition —
// so ApplyTrial(t) after SampleTrial(t, corner, rng) leaves the circuit in
// the bit-identical state ApplyRandomMismatch(c, tech, corner, rng) would.
func (b *MismatchBatch) SampleTrial(t int, corner GlobalCorner, rng *mathx.RNG) {
	b.check(t)
	base := t * len(b.devs)
	for d, m := range b.devs {
		mm := SampleMismatch(b.tech, m.Dev.Params.W, m.Dev.Params.L, rng)
		mm.DeltaVT0 += corner.DeltaVT0
		mm.BetaFactor *= corner.BetaFactor
		b.deltaVT0[base+d] = mm.DeltaVT0
		b.betaFactor[base+d] = mm.BetaFactor
	}
}

// ApplyTrial installs trial t's stored mismatch onto the circuit's devices.
// Damage is untouched, matching ApplyRandomMismatch.
func (b *MismatchBatch) ApplyTrial(t int) {
	b.check(t)
	base := t * len(b.devs)
	for d, m := range b.devs {
		m.Dev.Mismatch = device.Mismatch{
			DeltaVT0:   b.deltaVT0[base+d],
			BetaFactor: b.betaFactor[base+d],
		}
	}
}

func (b *MismatchBatch) check(t int) {
	if t < 0 || t >= b.n {
		panic(fmt.Sprintf("variation: trial %d out of batch range [0,%d)", t, b.n))
	}
}
