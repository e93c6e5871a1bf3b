package serve

import (
	"errors"
	"fmt"
	"sync"
)

// errQueueFull rejects a submission when the global queue bound is
// reached — the server's capacity backpressure (HTTP 503 + Retry-After).
var errQueueFull = errors.New("serve: job queue full")

// errDraining rejects a submission once shutdown has begun.
var errDraining = errors.New("serve: server is draining")

// errTenantQueueFull rejects a submission that would exceed the
// submitting tenant's own max_queued quota — a per-tenant 429, distinct
// from the global-capacity 503, because the remedy is different: the
// tenant must drain its own backlog, not wait for global capacity.
type errTenantQueueFull struct {
	tenant string
	limit  int
}

func (e *errTenantQueueFull) Error() string {
	return fmt.Sprintf("serve: tenant %s queue full (max_queued %d)", e.tenant, e.limit)
}

// jobQueue is the weighted fair-share scheduler that replaced the single
// bounded FIFO: each tenant owns two FIFO lanes (interactive before
// batch) and a stride-scheduling pass value. Workers pop the job of the
// eligible tenant with the smallest pass; every pop advances that
// tenant's pass by 1/weight, so under saturation tenants are scheduled
// jobs in proportion to their weights, an idle tenant's pass is clamped
// to the global virtual clock when it returns (no banked credit), and a
// tenant at its max_running cap is skipped without blocking the others.
// The global capacity bound keeps the exact backpressure accounting of
// the old FIFO: a burst of capacity+k admissible submissions yields
// exactly k rejections.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool

	capGlobal int
	queued    int
	clock     float64

	tenants map[string]*tenantLane

	// fleetRunning reports how many jobs of a tenant the healthy peer
	// nodes are currently running (none in a fleet of one), so the
	// max_running check below enforces the cap fleet-wide. It is called
	// under q.mu and takes the fleet table's own lock, so fleet code must
	// never acquire q.mu while holding that lock (the prober releases it
	// before calling poke).
	fleetRunning func(tenant string) int
}

// tenantLane is one tenant's scheduling state.
type tenantLane struct {
	id         string
	weight     float64
	maxQueued  int
	maxRunning int

	interactive []*Job
	batch       []*Job
	running     int
	// pass is the stride-scheduling virtual time; scheduled counts pops
	// handed to workers over the lane's lifetime (restored from the
	// journal after a restart so fair-share accounting survives).
	pass      float64
	scheduled int
}

func (l *tenantLane) depth() int { return len(l.interactive) + len(l.batch) }

func newJobQueue(depth int, fleetRunning func(tenant string) int) *jobQueue {
	q := &jobQueue{capGlobal: depth, tenants: map[string]*tenantLane{}, fleetRunning: fleetRunning}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// laneLocked returns (creating if needed) the tenant's lane. A nil cfg —
// the fleet-internal shard lane, or a recovered job's tenant this
// server's tenant table no longer lists — gets weight 1 and no
// per-tenant quotas, exactly like the default tenant's entry.
func (q *jobQueue) laneLocked(tenant string, cfg *TenantConfig) *tenantLane {
	l := q.tenants[tenant]
	if l == nil {
		l = &tenantLane{id: tenant, weight: 1}
		if cfg != nil {
			if cfg.Weight > 0 {
				l.weight = cfg.Weight
			}
			l.maxQueued = cfg.MaxQueued
			l.maxRunning = cfg.MaxRunning
		}
		q.tenants[tenant] = l
	}
	return l
}

// tryPush admits jobs atomically for one tenant: either every job is
// enqueued or none is. It rejects with errDraining after close — even an
// empty push, so a submission answered wholly from the cache is refused
// by a draining server like any other — errTenantQueueFull when the
// tenant's own max_queued quota cannot hold them, and errQueueFull when
// global capacity cannot — checked in that order, so a tenant over its
// own quota sees its own 429 even when the server is also globally full.
func (q *jobQueue) tryPush(cfg *TenantConfig, jobs ...*Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errDraining
	}
	if len(jobs) == 0 {
		return nil
	}
	l := q.laneLocked(jobs[0].laneID(), cfg)
	if l.maxQueued > 0 && l.depth()+len(jobs) > l.maxQueued {
		return &errTenantQueueFull{tenant: l.id, limit: l.maxQueued}
	}
	if q.queued+len(jobs) > q.capGlobal {
		return errQueueFull
	}
	q.pushLocked(l, jobs)
	return nil
}

// forcePush enqueues without quota or capacity checks — the restore
// path, which must never drop work the previous process had accepted
// (the queue was sized to fit it).
func (q *jobQueue) forcePush(cfg *TenantConfig, jobs ...*Job) error {
	if len(jobs) == 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errDraining
	}
	q.pushLocked(q.laneLocked(jobs[0].laneID(), cfg), jobs)
	return nil
}

func (q *jobQueue) pushLocked(l *tenantLane, jobs []*Job) {
	if l.depth() == 0 {
		// A lane going busy re-enters the schedule at the current virtual
		// time: idling earns no credit against active tenants.
		if l.pass < q.clock {
			l.pass = q.clock
		}
	}
	for _, j := range jobs {
		if j.class == ClassBatch {
			l.batch = append(l.batch, j)
		} else {
			l.interactive = append(l.interactive, j)
		}
	}
	q.queued += len(jobs)
	q.cond.Broadcast()
}

// pop blocks until a job is schedulable and returns it, or returns
// ok=false when the queue is closed and fully drained. The caller must
// pair every successful pop with exactly one done() when the job leaves
// execution, or max_running accounting wedges the tenant.
func (q *jobQueue) pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if j := q.selectLocked(); j != nil {
			return j, true
		}
		if q.closed && q.queued == 0 {
			return nil, false
		}
		q.cond.Wait()
	}
}

// selectLocked implements the stride pick: among tenants with queued
// work and running headroom, the smallest pass wins (ties broken by id
// for determinism); within the winner, interactive before batch.
func (q *jobQueue) selectLocked() *Job {
	var best *tenantLane
	for _, l := range q.tenants {
		if l.depth() == 0 {
			continue
		}
		if l.maxRunning > 0 {
			running := l.running
			// The cap counts the whole fleet's running jobs for the tenant,
			// not just this node's. The internal shard lane is exempt (it
			// has no cap to begin with).
			if l.id != fleetLane {
				running += q.fleetRunning(l.id)
			}
			if running >= l.maxRunning {
				continue
			}
		}
		if best == nil || l.pass < best.pass || (l.pass == best.pass && l.id < best.id) {
			best = l
		}
	}
	if best == nil {
		return nil
	}
	var j *Job
	if len(best.interactive) > 0 {
		j = best.interactive[0]
		best.interactive = best.interactive[1:]
	} else {
		j = best.batch[0]
		best.batch = best.batch[1:]
	}
	if best.pass > q.clock {
		q.clock = best.pass
	}
	best.pass += 1 / best.weight
	best.running++
	best.scheduled++
	q.queued--
	return j
}

// done releases the job's running slot; it wakes waiters because a
// tenant previously at its max_running cap may now be schedulable.
func (q *jobQueue) done(j *Job) {
	q.mu.Lock()
	if l := q.tenants[j.laneID()]; l != nil && l.running > 0 {
		l.running--
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// poke wakes blocked workers without changing queue state. The fleet
// prober calls it after every probe round: a peer going down (or coming
// back) changes fleet-wide max_running headroom, and a worker parked in
// pop would otherwise not notice until local state changed.
func (q *jobQueue) poke() {
	q.mu.Lock()
	q.cond.Broadcast()
	q.mu.Unlock()
}

// tenantLoads snapshots per-tenant local load — running and queued jobs
// per real tenant lane — for the /v1/fleet document the peers' probes
// consume. The internal shard lane is excluded: its jobs are accounted
// by their originating campaign on the dispatching node.
func (q *jobQueue) tenantLoads() map[string]fleetLoad {
	q.mu.Lock()
	defer q.mu.Unlock()
	var m map[string]fleetLoad
	for id, l := range q.tenants {
		if id == fleetLane {
			continue
		}
		if l.running == 0 && l.depth() == 0 {
			continue
		}
		if m == nil {
			m = make(map[string]fleetLoad)
		}
		m[id] = fleetLoad{Running: l.running, Queued: l.depth()}
	}
	return m
}

// restoreScheduled seeds per-tenant fair-share accounting from the
// journal after a restart: each tenant's pass resumes at
// scheduled/weight, so a tenant that consumed more than its share
// before the crash does not start the new process at parity.
func (q *jobQueue) restoreScheduled(counts map[string]int, cfg func(string) *TenantConfig) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for tenant, n := range counts {
		l := q.laneLocked(tenant, cfg(tenant))
		l.scheduled = n
		l.pass = float64(n) / l.weight
	}
	// The clock resumes at the laggard's pass: lanes keep their relative
	// debt, and the idle-clamp in pushLocked cannot erase it.
	first := true
	for _, l := range q.tenants {
		if first || l.pass < q.clock {
			q.clock = l.pass
			first = false
		}
	}
}

// close stops admission; workers drain whatever is already queued.
func (q *jobQueue) close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// depth returns the total number of queued jobs across all tenants.
func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// tenantDepth returns one tenant's queued-job count.
func (q *jobQueue) tenantDepth(tenant string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if l := q.tenants[tenant]; l != nil {
		return l.depth()
	}
	return 0
}

// tenantScheduled returns how many jobs of the tenant have been handed
// to workers (including the journal-restored count).
func (q *jobQueue) tenantScheduled(tenant string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if l := q.tenants[tenant]; l != nil {
		return l.scheduled
	}
	return 0
}

// capacity returns the global queue bound.
func (q *jobQueue) capacity() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.capGlobal
}
