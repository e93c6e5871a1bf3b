package variation

import (
	"runtime/debug"
	"sync"

	"repro/internal/circuit"
	"repro/internal/device"
)

// DiePool recycles built circuits ("dies") across the Monte-Carlo trials
// of one job, amortising netlist construction, sparsity-pattern discovery
// and symbolic factorisation. A die is kept for the whole job, so a pool
// whose trials never fail builds at most one die per concurrent worker.
// Every die it hands out is in its as-built state: on reuse the device
// damage is restored from a snapshot taken at build, the solver's
// warm-start state is reset and Guess is re-seeded. Mismatch is not
// restored: a trial must overwrite it in full, as ApplyRandomMismatch
// does, for reuse never to change a result. A DiePool is safe for
// concurrent use.
type DiePool struct {
	// Build constructs a fresh nominal circuit on every call.
	Build func() (*circuit.Circuit, error)
	// Guess, when non-nil, warm-starts every die (best effort: a
	// mis-sized guess is ignored).
	Guess []float64

	mu   sync.Mutex
	free []*Die
}

// Die is one pooled circuit.
type Die struct {
	Circuit *circuit.Circuit
	devs    []*circuit.MOSFET
	snap    []device.Damage
}

// Get returns a die in its as-built state, reusing a returned one when it
// can. A panic inside Build comes back as a *PanicError.
func (p *DiePool) Get() (*Die, error) {
	p.mu.Lock()
	n := len(p.free)
	if n == 0 {
		p.mu.Unlock()
		return p.build()
	}
	d := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.mu.Unlock()
	for i, m := range d.devs {
		m.Dev.Damage = d.snap[i]
	}
	d.Circuit.ResetSolverState()
	p.seed(d.Circuit)
	return d, nil
}

// Put takes back a die whose trial finished cleanly; a die whose trial
// errored must not be returned, since its state is suspect.
func (p *DiePool) Put(d *Die) {
	p.mu.Lock()
	p.free = append(p.free, d)
	p.mu.Unlock()
}

// build runs Build with panic isolation and snapshots the new die's
// damage.
func (p *DiePool) build() (d *Die, err error) {
	defer func() {
		if r := recover(); r != nil {
			d, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	c, err := p.Build()
	if err != nil {
		return nil, err
	}
	d = &Die{Circuit: c, devs: c.MOSFETList()}
	d.snap = make([]device.Damage, len(d.devs))
	for i, m := range d.devs {
		d.snap[i] = m.Dev.Damage
	}
	p.seed(c)
	return d, nil
}

func (p *DiePool) seed(c *circuit.Circuit) {
	if p.Guess != nil {
		// A mis-sized guess only costs the warm start, never a result.
		_ = c.SetInitialGuess(p.Guess)
	}
}
