package aging

import (
	"sync/atomic"

	"repro/internal/obs"
)

// pkgMetrics holds the degradation engine's instruments: one latency
// histogram per mechanism (the paper's Section 3 taxonomy — TDDB, HCI,
// NBTI; electromigration lives in internal/em with its own metrics) plus
// step and checkpoint counters, so long missions report where their aging
// time goes mechanism by mechanism, the way Grasser-style benchmarks log
// every stress/relax phase separately.
type pkgMetrics struct {
	steps       *obs.Counter
	checkpoints *obs.Counter
	nbtiSeconds *obs.Histogram
	hciSeconds  *obs.Histogram
	tddbSeconds *obs.Histogram
	deltaVT     *obs.Gauge
}

var met atomic.Pointer[pkgMetrics]

// SetMetrics wires the aging engine's instrumentation into reg, or
// disables it when reg is nil.
//
// Metrics registered:
//
//	aging_steps_total        count  DeviceAger.Step calls (one device × one interval)
//	aging_checkpoints_total  count  aging checkpoints solved by CircuitAger.AgeToCtx
//	aging_nbti_step_seconds  s      per-step NBTI ΔVT update latency
//	aging_hci_step_seconds   s      per-step HCI ΔVT update latency
//	aging_tddb_step_seconds  s      per-step TDDB advance latency
//	aging_last_delta_vt      V      most recent composed ΔVT installed on a device
func SetMetrics(reg *obs.Registry) {
	if reg == nil {
		met.Store(nil)
		return
	}
	met.Store(&pkgMetrics{
		steps:       reg.Counter("aging_steps_total", "1", "device aging steps"),
		checkpoints: reg.Counter("aging_checkpoints_total", "1", "aging checkpoints solved"),
		nbtiSeconds: reg.Histogram("aging_nbti_step_seconds", "s", "NBTI step latency", nil),
		hciSeconds:  reg.Histogram("aging_hci_step_seconds", "s", "HCI step latency", nil),
		tddbSeconds: reg.Histogram("aging_tddb_step_seconds", "s", "TDDB step latency", nil),
		deltaVT:     reg.Gauge("aging_last_delta_vt", "V", "last composed threshold shift"),
	})
}
