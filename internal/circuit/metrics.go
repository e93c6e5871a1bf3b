package circuit

import (
	"sync/atomic"

	"repro/internal/obs"
)

// pkgMetrics aggregates the solver's observability instruments across all
// circuits in the process. Per-circuit accounting stays on the Circuit
// (NewtonIterations); these global instruments are what an operator
// scrapes while a fleet of trials runs.
type pkgMetrics struct {
	newtonIters     *obs.Counter
	opSolves        *obs.Counter
	opWarmHits      *obs.Counter
	opGminFalls     *obs.Counter
	opSourceFalls   *obs.Counter
	singulars       *obs.Counter
	noConverge      *obs.Counter
	sparseSolves    *obs.Counter
	sparseFallbacks *obs.Counter
	opSeconds       *obs.Histogram
}

var met atomic.Pointer[pkgMetrics]

// SetMetrics wires the circuit solver's instrumentation into reg, or
// disables it when reg is nil. Every public solve call (OperatingPoint,
// DCSweep, Transient, TransientAdaptive) loads the instruments once, stages
// its accounting in the circuit's meter and flushes it before returning,
// so the registry is exact whenever no call is in flight and the Newton
// loop body never touches shared memory.
//
// Metrics registered:
//
//	circuit_newton_iterations_total  count  Newton iterations across all solves (DC and transient)
//	circuit_op_total                 count  OperatingPoint calls
//	circuit_op_warm_total            count  solves converged from the warm start (stage 0)
//	circuit_op_gmin_total            count  solves that entered the gmin ladder (stage 2)
//	circuit_op_source_total          count  solves that entered source stepping (stage 3)
//	circuit_singular_total           count  singular-MNA factorisation failures
//	circuit_noconvergence_total      count  OperatingPoint calls that failed outright
//	circuit_sparse_solves_total      count  Newton solves served by the sparse backend
//	circuit_sparse_fallbacks_total   count  sparse solves that fell back to dense
//	circuit_op_seconds               s      OperatingPoint latency histogram
func SetMetrics(reg *obs.Registry) {
	if reg == nil {
		met.Store(nil)
		return
	}
	met.Store(&pkgMetrics{
		newtonIters:     reg.Counter("circuit_newton_iterations_total", "1", "Newton iterations across all solves"),
		opSolves:        reg.Counter("circuit_op_total", "1", "OperatingPoint calls"),
		opWarmHits:      reg.Counter("circuit_op_warm_total", "1", "operating points converged from the warm start"),
		opGminFalls:     reg.Counter("circuit_op_gmin_total", "1", "operating points that fell back to gmin stepping"),
		opSourceFalls:   reg.Counter("circuit_op_source_total", "1", "operating points that fell back to source stepping"),
		singulars:       reg.Counter("circuit_singular_total", "1", "singular MNA factorisation failures"),
		noConverge:      reg.Counter("circuit_noconvergence_total", "1", "OperatingPoint failures"),
		sparseSolves:    reg.Counter("circuit_sparse_solves_total", "1", "Newton solves served by the sparse backend"),
		sparseFallbacks: reg.Counter("circuit_sparse_fallbacks_total", "1", "sparse solves that fell back to dense"),
		opSeconds:       reg.Histogram("circuit_op_seconds", "s", "OperatingPoint latency", nil),
	})
}

// meter stages one circuit's solver accounting between flushes: plain
// counters and single-owner histogram buffers, so metering a solve touches
// no shared memory until the public call that ran it returns. The rare
// fallback and failure counters bypass it and increment the instruments
// directly.
type meter struct {
	// inst is the instrument set bound at the last call start (nil while
	// metrics are off); counts staged while unbound are discarded.
	inst *pkgMetrics
	// iters0 is c.newtonIters when the meter last published.
	iters0                      int64
	ops, warmHits, sparseSolves int64
	opSec                       obs.HistBuf
}

// meterOn binds the circuit's meter to the live instruments at the start
// of a public solve call and returns them (nil when metrics are off).
func (c *Circuit) meterOn() *pkgMetrics {
	m := met.Load()
	mt := &c.meter
	if mt.inst != m {
		c.flushMetrics()
		mt.inst = m
		mt.iters0 = c.newtonIters
		mt.ops, mt.warmHits, mt.sparseSolves = 0, 0, 0
		if m != nil {
			mt.opSec.Bind(m.opSeconds)
		}
	}
	return m
}

// flushMetrics publishes everything staged since the last flush — the
// circuit's own counters and histogram plus its solver's LU meters — so
// the registry is exact again. Every public solve call ends here.
func (c *Circuit) flushMetrics() {
	mt := &c.meter
	if m := mt.inst; m != nil {
		m.newtonIters.Add(c.newtonIters - mt.iters0)
		mt.iters0 = c.newtonIters
		m.opSolves.Add(mt.ops)
		m.opWarmHits.Add(mt.warmHits)
		m.sparseSolves.Add(mt.sparseSolves)
		mt.ops, mt.warmHits, mt.sparseSolves = 0, 0, 0
		mt.opSec.Flush()
	}
	if c.slv != nil {
		c.slv.flushMetrics()
	}
}

// flushMetrics publishes the solver's staged LU metrics, dense and sparse.
func (s *solver) flushMetrics() {
	if s.ws != nil {
		s.ws.FlushMetrics()
	}
	if s.spMeter != nil {
		s.spMeter.Flush()
	}
}
