package linalg

import (
	"sync/atomic"

	"repro/internal/obs"
)

// luInstruments are one LU backend's factor/solve instruments.
type luInstruments struct {
	factors       *obs.Counter
	solves        *obs.Counter
	factorSeconds *obs.Histogram
	solveSeconds  *obs.Histogram
}

// pkgMetrics holds the package's instruments. The whole struct is swapped
// atomically by SetMetrics so instrumentation can be enabled mid-process
// without racing the solver goroutines.
type pkgMetrics struct {
	dense, sparse luInstruments
}

var met atomic.Pointer[pkgMetrics]

// SetMetrics wires the package's instrumentation into reg, or disables it
// when reg is nil. With metrics disabled the factor/solve hot path pays a
// single atomic pointer load per call — no allocations, no clock reads —
// which preserves the workspace pipeline's 0-alloc guarantee. With
// metrics enabled each factor/solve is staged in its owner's LUMeter and
// reaches the registry when the owner flushes.
//
// Metrics registered:
//
//	linalg_factor_total          count   LU factorisations through Workspace.Factor
//	linalg_factor_seconds        s       latency histogram of those factorisations
//	linalg_solve_total           count   triangular solves through Workspace.Solve
//	linalg_solve_seconds         s       latency histogram of those solves
//	linalg_sparse_factor_total   count   sparse LU factorisations metered by an LUMeter
//	linalg_sparse_factor_seconds s       latency histogram of those factorisations
//	linalg_sparse_solve_total    count   sparse triangular solves metered by an LUMeter
//	linalg_sparse_solve_seconds  s       latency histogram of those solves
func SetMetrics(reg *obs.Registry) {
	if reg == nil {
		met.Store(nil)
		return
	}
	met.Store(&pkgMetrics{
		dense: luInstruments{
			factors:       reg.Counter("linalg_factor_total", "1", "LU factorisations via Workspace.Factor"),
			solves:        reg.Counter("linalg_solve_total", "1", "triangular solves via Workspace.Solve"),
			factorSeconds: reg.Histogram("linalg_factor_seconds", "s", "Workspace.Factor latency", nil),
			solveSeconds:  reg.Histogram("linalg_solve_seconds", "s", "Workspace.Solve latency", nil),
		},
		sparse: luInstruments{
			factors:       reg.Counter("linalg_sparse_factor_total", "1", "sparse LU factorisations"),
			solves:        reg.Counter("linalg_sparse_solve_total", "1", "sparse LU triangular solves"),
			factorSeconds: reg.Histogram("linalg_sparse_factor_seconds", "s", "sparse LU factorisation latency", nil),
			solveSeconds:  reg.Histogram("linalg_sparse_solve_seconds", "s", "sparse LU solve latency", nil),
		},
	})
}

// LUMeter stages one owner's factor/solve accounting between flushes:
// plain counters and obs.HistBufs, so metering a Newton iteration touches
// no shared memory. A factor followed directly by its solve shares the
// clock reading between them; the factor's latency is buffered only after
// the solve is timed, so the bookkeeping never lands in the solve's
// interval. The owner must call Flush before the numbers are due — the
// circuit solver flushes when each public solve call returns. An LUMeter
// is single-goroutine and lives as long as its owner (a Workspace embeds
// one); the zero value meters the dense instruments.
type LUMeter struct {
	// Sparse routes the meter to the linalg_sparse_* instruments.
	Sparse bool

	inst            *luInstruments // bound instruments; nil until first use
	on              bool           // metrics were enabled at the last Begin
	t               int64          // obs.Mono at the last phase boundary
	factorNs        int64          // a timed factor not yet buffered, if pending
	pending         bool
	factors, solves int64
	factorSec       obs.HistBuf
	solveSec        obs.HistBuf
}

// Begin starts metering a factor or solve: it binds the meter to the live
// instruments and reads the clock, or does nothing when metrics are off.
func (lm *LUMeter) Begin() {
	lm.settle()
	m := met.Load()
	lm.on = m != nil
	if !lm.on {
		return
	}
	inst := &m.dense
	if lm.Sparse {
		inst = &m.sparse
	}
	if lm.inst != inst {
		lm.Flush()
		lm.inst = inst
		lm.factorSec.Bind(inst.factorSeconds)
		lm.solveSec.Bind(inst.solveSeconds)
	}
	lm.t = obs.Mono()
}

// Factored records a factorisation that ran since the last phase boundary.
func (lm *LUMeter) Factored() {
	if lm.on {
		lm.factors++
		lm.factorNs, lm.pending = lm.lap(), true
	}
}

// Solved records a solve that ran since the last phase boundary.
func (lm *LUMeter) Solved() {
	if lm.on {
		d := lm.lap()
		lm.solves++
		lm.solveSec.ObserveNanos(d)
		lm.settle()
	}
}

// settle buffers a factor latency still pending.
func (lm *LUMeter) settle() {
	if lm.pending {
		lm.factorSec.ObserveNanos(lm.factorNs)
		lm.pending = false
	}
}

// lap reads the clock once and returns the time since the last boundary,
// which the reading becomes.
func (lm *LUMeter) lap() int64 {
	now := obs.Mono()
	d := now - lm.t
	lm.t = now
	return d
}

// Flush publishes everything staged since the last flush.
func (lm *LUMeter) Flush() {
	if lm.inst == nil {
		return
	}
	lm.settle()
	lm.inst.factors.Add(lm.factors)
	lm.inst.solves.Add(lm.solves)
	lm.factors, lm.solves = 0, 0
	lm.factorSec.Flush()
	lm.solveSec.Flush()
}
