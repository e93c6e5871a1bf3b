package main

import (
	"math"
	"sort"
)

// metricDef is one metric of the catalogue. BENCHMARK.json lists the
// same names, units, directions and bounds; the test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which have none).
	bound float64
}

// endToEnd are the metrics a user of the job service sees, measured with
// tracing off. The bounds follow the run-to-run spread measured on a
// 2-vCPU shared host, where the host's own speed drifts by 10–30% between
// 10-second windows (README.md, "Host noise"): every timing gets close to
// the largest bound allowed, set-up the largest of all. Allocations
// barely move except on fleet_shard, where shard placement varies (spread
// up to 0.07): their bound is twice that.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.24},
	{"latency_p50_ms", "ms", "lower", 0.24},
	{"latency_p90_ms", "ms", "lower", 0.24},
	{"cpu_ms_per_job", "ms", "lower", 0.24},
	{"alloc_mb_per_job", "MB", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.24},
}

// extras are reported by the all-workload mode beside the end-to-end
// metrics, but are not in BENCHMARK.json: they are 0 or absent on some
// workloads, which a bounded metric may not be, or describe the host.
var extras = []metricDef{
	{"trials_per_s", "1/s", "higher", 0},
	{"latency_p99_ms", "ms", "lower", 0},
	{"latency_samples", "count", "higher", 0},
	{"error_rate", "ratio", "lower", 0},
	{"retaken_rounds", "count", "lower", 0},
}

// perLayer are measured by the traced pass; README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"serve.admit_ms", "ms", "lower", 0},
	{"serve.cached_answer_ms", "ms", "lower", 0},
	{"serve.queue_wait_ms", "ms", "lower", 0},
	{"serve.deliver_ms", "ms", "lower", 0},
	{"jobspec.decode_validate_us", "us", "lower", 0},
	{"jobspec.hash_us", "us", "lower", 0},
	{"netlist.parse_us", "us", "lower", 0},
	{"jobspec.execute_self_ms", "ms", "lower", 0},
	{"store.cache_hit_ratio", "ratio", "higher", 0},
	{"store.evictions_per_job", "count", "lower", 0},
	{"store.compactions", "count", "lower", 0},
	{"store.checkpoint_ms_per_job", "ms", "lower", 0},
	{"store.checkpoint_us", "us", "lower", 0},
	{"store.checkpoints_per_job", "count", "lower", 0},
	{"store.fsyncs_per_job", "count", "lower", 0},
	{"store.appends_per_job", "count", "lower", 0},
	{"store.replay_ms", "ms", "lower", 0},
	{"store.replay_records", "count", "lower", 0},
	{"variation.trial_us", "us", "lower", 0},
	{"variation.trial_self_us", "us", "lower", 0},
	{"variation.chunks_per_job", "count", "lower", 0},
	{"variation.worker_busy_share", "ratio", "higher", 0},
	{"circuit.op_us", "us", "lower", 0},
	{"circuit.newton_iters_per_op", "count", "lower", 0},
	{"circuit.warm_share", "ratio", "higher", 0},
	{"circuit.sparse_share", "ratio", "higher", 0},
	{"circuit.fallbacks", "count", "lower", 0},
	{"linalg.factor_us", "us", "lower", 0},
	{"linalg.solve_us", "us", "lower", 0},
	{"linalg.factors_per_op", "count", "lower", 0},
	{"jobspec.subjob_ms.corners", "ms", "lower", 0},
	{"jobspec.subjob_ms.mc", "ms", "lower", 0},
	{"jobspec.subjob_ms.age", "ms", "lower", 0},
	{"jobspec.subjob_ms.wearout", "ms", "lower", 0},
	{"serve.subjob_cached_share", "ratio", "higher", 0},
	{"aging.steps_per_job", "count", "lower", 0},
	{"aging.nbti_step_us", "us", "lower", 0},
	{"aging.hci_step_us", "us", "lower", 0},
	{"aging.tddb_step_us", "us", "lower", 0},
	{"serve.shard_ms", "ms", "lower", 0},
	{"serve.shard_straggler_ratio", "ratio", "lower", 0},
	{"serve.shards_remote_share", "ratio", "higher", 0},
	{"serve.shard_fallbacks", "count", "lower", 0},
	{"runtime.gc_cycles_per_job", "count", "lower", 0},
	{"runtime.gc_pause_ms_per_job", "ms", "lower", 0},
	{"trace.unattributed_share", "ratio", "lower", 0},
	{"trace.overhead", "ratio", "higher", 0},
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads this program prints match the ones the acceptance check
// computes. Fewer than two values give that value for both.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// percentile returns the nearest-rank p-quantile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
