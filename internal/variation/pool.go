package variation

import (
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
// warm-start state is reset and the WarmStart guess is re-seeded.
// Mismatch is not restored: a trial must overwrite it in full, as
// ApplyRandomMismatch does, for reuse never to change a result. A DiePool
// is safe for concurrent use once WarmStart, if called, has returned.
type DiePool struct {
	// Build constructs a fresh nominal circuit on every call.
	Build func() (*circuit.Circuit, error)

	guess []float64 // set by WarmStart; seeds every die handed out

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

// WarmStart solves one nominal die and keeps its solution as the initial
// guess of every die the pool hands out, then puts the die back for the
// first trial. Mismatch and corners only perturb the bias point, so each
// trial's first Newton solve starts next to its answer instead of
// climbing the cold homotopy ladder; trials that diverge from the guess
// fall back to that ladder inside the solver. It is best effort: a failing
// or even panicking build or solve only leaves the pool without a warm
// start. Call it before the pool is shared.
func (p *DiePool) WarmStart() {
	defer func() { _ = recover() }()
	d, err := p.Get()
	if err != nil {
		return
	}
	sol, err := d.Circuit.OperatingPoint()
	if err != nil {
		return
	}
	p.guess = sol.X
	p.Put(d)
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
			d, err = nil, &PanicError{Value: r}
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
	if p.guess != nil {
		// A mis-sized guess only costs the warm start, never a result.
		_ = c.SetInitialGuess(p.guess)
	}
}
