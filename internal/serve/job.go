package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/jobspec"
	"repro/internal/store"
)

// State is a job's lifecycle state. The machine is strictly forward:
// queued → running → {done, failed, cancelled}, or queued → cancelled
// directly when a job is cancelled before a worker picks it up.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one entry of a job's ordered event log, streamed as NDJSON by
// GET /v1/jobs/{id}/events. Seq is dense and strictly increasing per job.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // queued | started | progress | done | failed | cancelled
	// Stage/Done/Total carry progress samples ("trial" or "checkpoint").
	Stage string `json:"stage,omitempty"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
	// Error carries the failure or cancellation cause on terminal events.
	Error string `json:"error,omitempty"`
}

// Job is one submitted analysis tracked by the server. All mutable state
// is guarded by mu; the event log only grows, and changed is closed and
// replaced on every append so streamers can wait without polling.
type Job struct {
	ID   string
	Spec *jobspec.Spec
	// specHash is the canonical content address of Spec, computed once at
	// admission; it keys the store's result cache.
	specHash string
	// tenant owns the job (DefaultTenant without a keyfile) and class
	// is its priority class; both are fixed at admission and drive the
	// fair-share scheduler, so they are immutable and safe to read without
	// mu.
	tenant string
	class  string
	// internal marks a fleet-dispatched shard sub-job: still owned by its
	// originating tenant (polls scope to it), but scheduled from the
	// quota-exempt fleet lane, because the parent campaign already holds
	// the tenant's max_running slot on the dispatching node. Fixed at
	// admission like tenant and class.
	internal bool

	mu              sync.Mutex
	state           State
	submitted       time.Time
	started         time.Time
	finished        time.Time
	result          json.RawMessage // encoded *jobspec.Result, set on finish
	errMsg          string
	cached          bool // result served from the spec-hash cache
	cancelRequested bool
	cancel          context.CancelFunc // non-nil while running
	events          []Event
	changed         chan struct{}

	// resume holds journaled campaign checkpoint payloads recovered from
	// the store — chunks the previous process completed before it died.
	// Written once in restoredJob before the job is published, read once
	// by the worker; the queue hand-off orders the two.
	resume []json.RawMessage
}

// newJob builds a queued job; Server.track names it when admission
// publishes it.
func newJob(spec *jobspec.Spec, hash, tenant, class string, now time.Time) *Job {
	j := &Job{
		Spec: spec, specHash: hash,
		tenant:    tenant,
		class:     class,
		state:     StateQueued,
		submitted: now,
		changed:   make(chan struct{}),
	}
	j.appendLocked(Event{Type: "queued"})
	return j
}

// laneID resolves the queue lane the job is scheduled from: its tenant,
// except for fleet-internal shard sub-jobs, which share the quota-exempt
// fleet lane.
func (j *Job) laneID() string {
	if j.internal {
		return fleetLane
	}
	return j.tenant
}

// newCachedJob builds a job that is born terminal: its result is the
// byte-identical snapshot of an earlier run with the same canonical
// spec hash, so it never touches the queue or the worker pool.
func newCachedJob(spec *jobspec.Spec, hash, tenant, class string, result json.RawMessage, now time.Time) *Job {
	j := &Job{
		Spec: spec, specHash: hash,
		tenant:    tenant,
		class:     class,
		state:     StateDone,
		submitted: now,
		finished:  now,
		result:    result,
		cached:    true,
		changed:   make(chan struct{}),
	}
	j.appendLocked(Event{Type: "queued"})
	j.appendLocked(Event{Type: "done"})
	return j
}

// resumable reports whether a recovered job can be re-run to a verdict
// instead of being finalized. Monte-Carlo campaigns checkpoint whole
// grid chunks and signoff campaigns checkpoint completed DAG nodes, so
// an interrupted one re-enqueues with its journaled checkpoints and
// re-runs at most the unit that was in flight; the other analyses have
// no checkpoint grid and keep the fail-with-cause path.
func resumable(r store.RecoveredJob) bool {
	if r.State != store.StateInterrupted || r.Spec == nil {
		return false
	}
	switch r.Spec.Analysis {
	case jobspec.KindMC:
		return r.Spec.MC != nil
	case jobspec.KindSignoff:
		return r.Spec.Signoff != nil
	}
	return false
}

// restoredJob rebuilds a Job from its journaled lifecycle after a
// restart. Per-trial progress events are not journaled, so the restored
// job carries a condensed event log of its lifecycle transitions. A
// Monte-Carlo campaign that was running when the previous process died
// goes back on the queue carrying its journaled checkpoints — this is
// the fix for the all-or-nothing campaign loss, where every interrupted
// run was finalized as failed with an InterruptedError. Interrupted
// jobs of other analysis kinds still take that path, keeping whatever
// partial result snapshot reached the disk.
func restoredJob(r store.RecoveredJob, now time.Time) *Job {
	j := &Job{
		ID: r.ID, Spec: r.Spec, specHash: r.Hash,
		tenant:    r.Tenant,
		class:     r.Class,
		internal:  r.Internal,
		state:     StateQueued,
		submitted: r.Submitted,
		changed:   make(chan struct{}),
	}
	// Journals written before multi-tenancy carry no tenant; their jobs
	// belong to the default tenant with default priority.
	if j.tenant == "" {
		j.tenant = DefaultTenant
	}
	if !validClass(j.class) {
		j.class = ClassInteractive
	}
	j.appendLocked(Event{Type: "queued"})
	switch r.State {
	case store.StateQueued:
		// Stays queued; the server re-enqueues it behind the workers.
	case store.StateInterrupted:
		if resumable(r) {
			for _, cp := range r.Checkpoints {
				j.resume = append(j.resume, cp.Data)
			}
			// The event log records how much of the campaign survived the
			// crash; the worker's execution will resume from there.
			j.appendLocked(Event{Type: "progress", Stage: "resume",
				Done: len(r.Checkpoints), Total: r.Spec.ResumeUnits()})
			break
		}
		j.state = StateFailed
		j.started = r.Started
		j.finished = now
		j.errMsg = (&store.InterruptedError{JobID: r.ID, Started: r.Started}).Error()
		j.result = r.Result
		j.appendLocked(Event{Type: "started"})
		j.appendLocked(Event{Type: "failed", Error: j.errMsg})
	default: // done | failed | cancelled
		j.state = State(r.State)
		j.started = r.Started
		j.finished = r.Finished
		j.errMsg = r.Error
		j.result = r.Result
		if !r.Started.IsZero() {
			j.appendLocked(Event{Type: "started"})
		}
		j.appendLocked(Event{Type: string(j.state), Error: j.errMsg})
	}
	return j
}

// appendLocked appends an event and wakes streamers. Callers outside the
// constructor must hold mu.
func (j *Job) appendLocked(ev Event) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// addProgress records one execution progress sample as an event.
func (j *Job) addProgress(p jobspec.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return // late sample after cancellation already finalized the job
	}
	j.appendLocked(Event{Type: "progress", Stage: p.Stage, Done: p.Done, Total: p.Total})
}

// start transitions queued → running and installs the job's cancel
// function. It returns false when the job is no longer queued (cancelled
// while waiting), in which case the worker must skip it.
func (j *Job) start(cancel context.CancelFunc, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = now
	j.cancel = cancel
	j.appendLocked(Event{Type: "started"})
	return true
}

// requestCancel asks the job to stop. A queued job is finalized
// immediately (the worker will skip it); a running job has its context
// cancelled and finalizes when the engine returns with its partial
// result. Terminal jobs are untouched. It returns true only when the job
// was finalized right here (queued → cancelled), so callers know whether
// to account the terminal state themselves or leave it to finish().
func (j *Job) requestCancel(reason string) (finalized bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.finished = time.Now()
		j.errMsg = reason
		j.appendLocked(Event{Type: "cancelled", Error: reason})
		return true
	case StateRunning:
		if !j.cancelRequested {
			j.cancelRequested = true
			j.cancel()
		}
	}
	return false
}

// outcome is a job's terminal transition: what the store journals and
// what finish publishes.
type outcome struct {
	state    State
	errMsg   string
	result   json.RawMessage // encoded *jobspec.Result, possibly partial
	finished time.Time
	// cacheable marks the only kind of result the spec-hash cache takes:
	// complete, computed here, of a spec that did not opt out.
	cacheable bool
}

// settle computes a running job's outcome from the executor's return
// values without publishing it, so the worker can persist the outcome
// first: whoever observes the terminal state may rely on the store, and
// its cache, already holding it.
func (j *Job) settle(res *jobspec.Result, execErr error, now time.Time) outcome {
	o := outcome{finished: now}
	if res != nil {
		b, err := json.Marshal(res)
		if err != nil && execErr == nil {
			execErr = fmt.Errorf("serve: result not encodable: %w", err)
		}
		o.result = b
	}
	j.mu.Lock()
	cancelled := j.cancelRequested
	j.mu.Unlock()
	switch {
	case execErr != nil:
		o.state, o.errMsg = StateFailed, execErr.Error()
		if cancelled {
			o.state = StateCancelled
		}
	case cancelled:
		// Engine returned cleanly after cancellation: the result holds the
		// exactly-accounted partial run.
		o.state = StateCancelled
		if res != nil && res.Warning != "" {
			o.errMsg = res.Warning
		}
	default:
		// Includes Partial results from the job's own timeout: the run
		// answered with what it measured, which is a completed job.
		o.state = StateDone
		o.cacheable = o.result != nil && !res.Partial && !j.Spec.NoCache
	}
	return o
}

// finish publishes a running job's settled outcome. The terminal state,
// the result and the final event are committed under one lock
// acquisition, so a streamer never observes a terminal state without
// its terminal event.
func (j *Job) finish(o outcome) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state, j.errMsg, j.result, j.finished = o.state, o.errMsg, o.result, o.finished
	j.appendLocked(Event{Type: string(o.state), Error: o.errMsg})
}

// eventCount returns the current length of the event log.
func (j *Job) eventCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

// terminalInfo returns the job's state and finished time — what the
// retention policy needs to pick eviction candidates.
func (j *Job) terminalInfo() (State, time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.finished
}

// terminalSnapshot returns the outcome of a job already published
// terminal — cancelled while queued, failed at restore, or born from the
// cache. None of these results was computed here, so none is cacheable.
func (j *Job) terminalSnapshot() outcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	return outcome{state: j.state, errMsg: j.errMsg, result: j.result, finished: j.finished}
}

// eventsSince returns a copy of up to max events from seq on (max <= 0 =
// unbounded), whether the job is terminal, and a channel that closes on
// the next change — everything a streamer needs for one race-free
// iteration. The bound keeps one streamer's copy-under-lock O(max) even
// against a job with a huge progress log, so a thousand concurrent
// subscribers cannot stall progress appends behind full-log copies.
func (j *Job) eventsSince(seq, max int) (evs []Event, terminal bool, wait <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq < len(j.events) {
		end := len(j.events)
		if max > 0 && seq+max < end {
			end = seq + max
		}
		evs = append(evs, j.events[seq:end]...)
	}
	return evs, j.state.Terminal(), j.changed
}

// View is the JSON representation of a job served by the API. List
// responses omit Spec and Result; the single-job endpoint includes them.
type View struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Tenant owns the job; Class is its scheduling priority class.
	Tenant    string       `json:"tenant,omitempty"`
	Class     string       `json:"class,omitempty"`
	Analysis  jobspec.Kind `json:"analysis"`
	Submitted time.Time    `json:"submitted"`
	Started   *time.Time   `json:"started,omitempty"`
	Finished  *time.Time   `json:"finished,omitempty"`
	Error     string       `json:"error,omitempty"`
	Events    int          `json:"events"`
	// Cached marks a job answered from the spec-keyed result cache
	// instead of being executed.
	Cached bool          `json:"cached,omitempty"`
	Spec   *jobspec.Spec `json:"spec,omitempty"`
	// Result is the encoded jobspec.Result (present once terminal, also
	// for cancelled jobs that persisted a partial result).
	Result json.RawMessage `json:"result,omitempty"`
}

// view snapshots the job.
func (j *Job) view(full bool) View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:        j.ID,
		State:     j.state,
		Tenant:    j.tenant,
		Class:     j.class,
		Analysis:  j.Spec.Analysis,
		Submitted: j.submitted,
		Error:     j.errMsg,
		Events:    len(j.events),
		Cached:    j.cached,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if full {
		v.Spec = j.Spec
		v.Result = j.result
	}
	return v
}

// snapshot returns the fields the worker needs without racing the
// handlers.
func (j *Job) snapshot() (state State, submitted time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.submitted
}
