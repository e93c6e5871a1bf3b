package serve

import (
	"repro/internal/jobspec"
	"repro/internal/obs"
)

// metrics holds the job service's instruments, folded into the same
// registry the simulation stack publishes to, so one /metrics scrape
// shows queue pressure next to Newton iterations. All instruments are
// obs nil-receiver-safe: a server built without a Registry pays one nil
// check per event.
//
// Metrics registered:
//
//	serve_jobs_submitted_total        count  jobs accepted into the queue
//	serve_jobs_submitted_<kind>_total count  accepted jobs by analysis kind (per-job labels)
//	serve_jobs_rejected_total         count  submissions refused with 503 backpressure
//	serve_jobs_done_total             count  jobs finished successfully (incl. partial-on-timeout)
//	serve_jobs_failed_total           count  jobs that errored or panicked
//	serve_jobs_cancelled_total        count  jobs cancelled (client DELETE or shutdown drain)
//	serve_jobs_evicted_total          count  terminal jobs evicted by the retention policy
//	serve_jobs_resumed_total          count  interrupted campaigns re-enqueued with their checkpoints
//	serve_checkpoints_total           count  campaign chunk checkpoints journaled by workers
//	serve_shards_dispatched_total     count  campaign shards answered by peer servers
//	serve_shard_fallbacks_total       count  peer shard dispatches that fell back to local execution
//	serve_shard_fallbacks_auth_total  count  fallbacks caused by a peer rejecting the shard 401/403
//	serve_shard_fallbacks_unreachable_total count fallbacks caused by an unreachable or timed-out peer
//	serve_shards_placed_local_total   count  shards placed on this node (least loaded / no healthy peer / a lone server)
//	serve_fleet_probes_total          count  fleet health probes issued
//	serve_fleet_probe_failures_total  count  fleet health probes that failed
//	serve_fleet_forwards_total        count  requests forwarded to the owning fleet node
//	serve_fleet_takeovers_total       count  jobs adopted from dead fleet peers
//	serve_fleet_nodes_healthy         gauge  fleet nodes currently healthy (this one included)
//	serve_subjobs_cached_total        count  signoff sub-jobs answered from the result cache
//	serve_store_errors_total          count  store writes that failed (job state stays in memory)
//	serve_batches_submitted_total     count  batch submissions accepted
//	serve_batch_specs_deduped_total   count  batch specs folded into an identical sibling spec
//	serve_batch_specs_cached_total    count  batch specs answered from the result cache
//	serve_queue_depth                 gauge  jobs waiting in the bounded queue
//	serve_jobs_inflight               gauge  jobs currently executing on the worker pool
//	serve_event_subscribers           gauge  open /events streams
//	serve_job_seconds                 s      submit→finish latency of finished jobs
//	serve_queue_wait_seconds          s      submit→start wait of started jobs
//
// plus the per-tenant family documented at the tenant helpers below.
type metrics struct {
	reg                       *obs.Registry
	submitted                 *obs.Counter
	rejected                  *obs.Counter
	done                      *obs.Counter
	failed                    *obs.Counter
	cancelled                 *obs.Counter
	evicted                   *obs.Counter
	resumed                   *obs.Counter
	checkpoints               *obs.Counter
	shardsDispatched          *obs.Counter
	shardFallbacks            *obs.Counter
	shardFallbacksAuth        *obs.Counter
	shardFallbacksUnreachable *obs.Counter
	shardsLocal               *obs.Counter
	fleetProbes               *obs.Counter
	fleetProbeFails           *obs.Counter
	fleetForwards             *obs.Counter
	fleetTakeovers            *obs.Counter
	fleetHealthy              *obs.Gauge
	subjobsCached             *obs.Counter
	storeErrors               *obs.Counter
	batches                   *obs.Counter
	batchDeduped              *obs.Counter
	batchCached               *obs.Counter
	depth                     *obs.Gauge
	inflight                  *obs.Gauge
	subscribers               *obs.Gauge
	jobSecs                   *obs.Histogram
	waitSecs                  *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		reg:                       reg,
		submitted:                 reg.Counter("serve_jobs_submitted_total", "1", "jobs accepted into the queue"),
		rejected:                  reg.Counter("serve_jobs_rejected_total", "1", "submissions rejected with backpressure"),
		done:                      reg.Counter("serve_jobs_done_total", "1", "jobs finished successfully"),
		failed:                    reg.Counter("serve_jobs_failed_total", "1", "jobs that errored or panicked"),
		cancelled:                 reg.Counter("serve_jobs_cancelled_total", "1", "jobs cancelled by client or shutdown"),
		evicted:                   reg.Counter("serve_jobs_evicted_total", "1", "terminal jobs evicted by the retention policy"),
		resumed:                   reg.Counter("serve_jobs_resumed_total", "1", "interrupted campaigns re-enqueued with their checkpoints"),
		checkpoints:               reg.Counter("serve_checkpoints_total", "1", "campaign chunk checkpoints journaled by workers"),
		shardsDispatched:          reg.Counter("serve_shards_dispatched_total", "1", "campaign shards answered by peer servers"),
		shardFallbacks:            reg.Counter("serve_shard_fallbacks_total", "1", "peer shard dispatches that fell back to local execution"),
		shardFallbacksAuth:        reg.Counter("serve_shard_fallbacks_auth_total", "1", "shard fallbacks caused by a peer auth rejection"),
		shardFallbacksUnreachable: reg.Counter("serve_shard_fallbacks_unreachable_total", "1", "shard fallbacks caused by an unreachable or timed-out peer"),
		shardsLocal:               reg.Counter("serve_shards_placed_local_total", "1", "shards placed on this node, a lone server's included"),
		fleetProbes:               reg.Counter("serve_fleet_probes_total", "1", "fleet health probes issued"),
		fleetProbeFails:           reg.Counter("serve_fleet_probe_failures_total", "1", "fleet health probes that failed"),
		fleetForwards:             reg.Counter("serve_fleet_forwards_total", "1", "requests forwarded to the owning fleet node"),
		fleetTakeovers:            reg.Counter("serve_fleet_takeovers_total", "1", "jobs adopted from dead fleet peers"),
		fleetHealthy:              reg.Gauge("serve_fleet_nodes_healthy", "1", "fleet nodes currently healthy"),
		subjobsCached:             reg.Counter("serve_subjobs_cached_total", "1", "signoff sub-jobs answered from the result cache"),
		storeErrors:               reg.Counter("serve_store_errors_total", "1", "store writes that failed"),
		batches:                   reg.Counter("serve_batches_submitted_total", "1", "batch submissions accepted"),
		batchDeduped:              reg.Counter("serve_batch_specs_deduped_total", "1", "batch specs folded into an identical sibling spec"),
		batchCached:               reg.Counter("serve_batch_specs_cached_total", "1", "batch specs answered from the result cache"),
		depth:                     reg.Gauge("serve_queue_depth", "1", "jobs waiting in the bounded queue"),
		inflight:                  reg.Gauge("serve_jobs_inflight", "1", "jobs currently executing"),
		subscribers:               reg.Gauge("serve_event_subscribers", "1", "open /events streams"),
		jobSecs:                   reg.Histogram("serve_job_seconds", "s", "submit-to-finish job latency", nil),
		waitSecs:                  reg.Histogram("serve_queue_wait_seconds", "s", "submit-to-start queue wait", nil),
	}
}

// kindCounter returns the per-analysis-kind submission counter — the
// per-job label dimension, encoded into the metric name because the obs
// registry is flat. Registry get-or-create makes this cheap and
// idempotent; a nil registry returns a nil (no-op) counter.
func (m *metrics) kindCounter(kind jobspec.Kind) *obs.Counter {
	return m.reg.Counter("serve_jobs_submitted_"+string(kind)+"_total", "1",
		"accepted jobs with analysis "+string(kind))
}

// Per-tenant instruments, label-in-name like kindCounter. Tenant ids are
// operator-chosen from a small static keyfile, so the name space stays
// bounded.
//
//	serve_tenant_<id>_admitted_total   count  jobs of the tenant admitted to the queue
//	serve_tenant_<id>_rejected_total   count  submissions refused by the tenant's own quota (429)
//	serve_tenant_<id>_scheduled_total  count  jobs of the tenant handed to workers
//	serve_tenant_<id>_trials_total     count  trials completed for the tenant (non-MC jobs count 1)
//	serve_tenant_<id>_queue_depth      gauge  jobs of the tenant waiting in the queue

func (m *metrics) tenantAdmitted(tenant string) *obs.Counter {
	return m.reg.Counter("serve_tenant_"+tenant+"_admitted_total", "1",
		"jobs of tenant "+tenant+" admitted to the queue")
}

func (m *metrics) tenantRejected(tenant string) *obs.Counter {
	return m.reg.Counter("serve_tenant_"+tenant+"_rejected_total", "1",
		"submissions of tenant "+tenant+" rejected by its own quota")
}

func (m *metrics) tenantScheduled(tenant string) *obs.Counter {
	return m.reg.Counter("serve_tenant_"+tenant+"_scheduled_total", "1",
		"jobs of tenant "+tenant+" handed to workers")
}

func (m *metrics) tenantTrials(tenant string) *obs.Counter {
	return m.reg.Counter("serve_tenant_"+tenant+"_trials_total", "1",
		"trials completed for tenant "+tenant)
}

func (m *metrics) tenantDepth(tenant string) *obs.Gauge {
	return m.reg.Gauge("serve_tenant_"+tenant+"_queue_depth", "1",
		"jobs of tenant "+tenant+" waiting in the queue")
}

// finished bumps the terminal-state counter for st.
func (m *metrics) finished(st State) {
	switch st {
	case StateDone:
		m.done.Inc()
	case StateFailed:
		m.failed.Inc()
	case StateCancelled:
		m.cancelled.Inc()
	}
}
