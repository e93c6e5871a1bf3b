package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/jobspec"
)

// maxBatchRecords bounds the in-memory batch table. Batch envelopes are
// ephemeral groupings — the jobs inside them are journaled individually
// and survive restarts, the grouping does not — so the table holds the
// most recent envelopes and silently forgets the oldest.
const maxBatchRecords = 256

// batchRecord is the server-side memory of one POST /v1/batches: which
// job each spec index resolved to, and how (fresh, cache hit, or
// duplicate of an identical sibling spec).
type batchRecord struct {
	id        string
	tenant    string
	submitted time.Time
	refs      []batchJobRef
}

type batchJobRef struct {
	index  int
	jobID  string
	cached bool
	// dupOf is the index of the identical earlier spec this one was folded
	// into (-1 when the spec got its own job).
	dupOf int
}

// batchJobView is one spec's entry in a batch response.
type batchJobView struct {
	// Index is the spec's position in the submitted batch.
	Index int `json:"index"`
	// JobID names the job answering this spec — shared with every
	// duplicate sibling.
	JobID string `json:"job_id"`
	// State is the job's current state (absent when the job has since
	// been evicted by the retention policy).
	State State `json:"state,omitempty"`
	// Cached marks a spec answered from the result cache without running.
	Cached bool `json:"cached,omitempty"`
	// DuplicateOf points at the earlier spec index this one was
	// deduplicated into; absent for specs that got their own job.
	DuplicateOf *int `json:"duplicate_of,omitempty"`
}

// batchView is the response of POST /v1/batches and GET /v1/batches/{id}.
type batchView struct {
	ID        string         `json:"id"`
	Tenant    string         `json:"tenant"`
	Submitted time.Time      `json:"submitted"`
	Jobs      []batchJobView `json:"jobs"`
	// States counts the batch's jobs by current state; Terminal is true
	// once every job is done, failed or cancelled.
	States   map[string]int `json:"states"`
	Terminal bool           `json:"terminal"`
}

// handleBatchSubmit admits one request carrying a sweep of specs under
// the tenant's quotas, atomically: either every non-cached spec is
// enqueued or none is. Specs that are identical after defaulting (equal
// canonical hash) are folded into one job; specs whose hash already has
// a cached result are answered from the cache without a queue slot or a
// trial-rate debit. Batch specs default to the batch priority class
// (X-Priority overrides) — a sweep should not preempt interactive work.
func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request, ts *tenantState) {
	tenant := ts.cfg.ID
	class, err := requestClass(r, ClassBatch)
	if err != nil {
		writeError(w, http.StatusBadRequest, apiError(ErrBadArgument, err))
		return
	}
	batch := new(jobspec.Batch)
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(batch); err != nil {
		writeError(w, http.StatusBadRequest,
			apiError(ErrInvalidSpec, fmt.Errorf("decoding batch: %w", err)))
		return
	}
	for i, sp := range batch.Specs {
		if sp != nil && sp.NetlistFile != "" {
			writeError(w, http.StatusBadRequest, apiError(ErrInvalidSpec, fmt.Errorf(
				"batch spec %d: the job server accepts inline netlists only (set \"netlist\", not \"netlist_file\")", i)))
			return
		}
	}
	batch.ApplyDefaults()
	if s.cfg.DefaultTimeout > 0 {
		for _, sp := range batch.Specs {
			if sp != nil && sp.Timeout == 0 {
				sp.Timeout = jobspec.Duration(s.cfg.DefaultTimeout)
			}
		}
	}
	if err := batch.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, apiError(ErrInvalidSpec, err))
		return
	}

	// Dedup pass: hash every spec, fold identical siblings onto the first
	// occurrence. firstIdx maps hash → owning spec index.
	n := len(batch.Specs)
	hashes := make([]string, n)
	dupOf := make([]int, n)
	firstIdx := map[string]int{}
	for i, sp := range batch.Specs {
		hashes[i] = sp.CanonicalHash()
		if j, seen := firstIdx[hashes[i]]; seen {
			dupOf[i] = j
		} else {
			firstIdx[hashes[i]] = i
			dupOf[i] = -1
		}
	}
	// Cache pass over the unique specs.
	cachedRaw := map[int]json.RawMessage{}
	for i, sp := range batch.Specs {
		if dupOf[i] != -1 || sp.NoCache {
			continue
		}
		if _, raw, ok := s.cfg.Store.CachedResult(hashes[i]); ok {
			cachedRaw[i] = raw
		}
	}
	// Rate admission covers only the work that will actually run.
	cost := 0.0
	var toRun []int
	for i := range batch.Specs {
		if dupOf[i] != -1 {
			continue
		}
		if _, hit := cachedRaw[i]; hit {
			continue
		}
		toRun = append(toRun, i)
		cost += trialCost(batch.Specs[i])
	}
	if !s.admitRate(w, ts, cost) {
		return
	}
	// Admit the runnable specs atomically; nothing is journaled or
	// visible until the whole set has a queue slot.
	queued := make(map[int]*Job, len(toRun))
	jobsToPush := make([]*Job, 0, len(toRun))
	for _, i := range toRun {
		j := s.addJob(batch.Specs[i], hashes[i], tenant, class, false)
		queued[i] = j
		jobsToPush = append(jobsToPush, j)
	}
	if err := s.queue.tryPush(s.tenantCfg(tenant), jobsToPush...); err != nil {
		for _, j := range queued {
			s.removeJob(j.ID)
		}
		ts.refund(cost)
		s.rejectPush(w, err, ts)
		return
	}
	now := time.Now()
	refs := make([]batchJobRef, n)
	allTerminal := true
	for i := range batch.Specs {
		switch {
		case dupOf[i] != -1:
			// Filled below once the owning index has its job.
		case queued[i] != nil:
			j := queued[i]
			refs[i] = batchJobRef{index: i, jobID: j.ID, dupOf: -1}
			s.met.submitted.Inc()
			s.met.kindCounter(batch.Specs[i].Analysis).Inc()
			s.met.tenantAdmitted(tenant).Inc()
			s.persistSubmitted(j, now)
			allTerminal = false
		default:
			raw := cachedRaw[i]
			j := s.addCachedJob(batch.Specs[i], hashes[i], tenant, class, raw, now)
			if j == nil {
				// Drain began mid-admission: the already-queued siblings run
				// to completion under the drain (and land in the cache), but
				// the batch as a unit is refused, matching the single-submit
				// drain contract.
				writeError(w, http.StatusServiceUnavailable, ErrorBody{
					Code: ErrDraining, Message: errDraining.Error(), RetryAfterS: s.retryAfterHint()})
				return
			}
			refs[i] = batchJobRef{index: i, jobID: j.ID, cached: true, dupOf: -1}
			s.met.batchCached.Inc()
		}
	}
	for i := range batch.Specs {
		if d := dupOf[i]; d != -1 {
			refs[i] = batchJobRef{index: i, jobID: refs[d].jobID, cached: refs[d].cached, dupOf: d}
			s.met.batchDeduped.Inc()
			if !refs[d].cached {
				allTerminal = false
			}
		}
	}
	s.met.batches.Inc()
	s.met.depth.Set(float64(s.queue.depth()))
	s.met.tenantDepth(tenant).Set(float64(s.queue.tenantDepth(tenant)))
	s.enforceRetention(now)

	rec := &batchRecord{tenant: tenant, submitted: now, refs: refs}
	s.batchMu.Lock()
	s.nextBatchID++
	rec.id = fmt.Sprintf("batch-%06d", s.nextBatchID)
	s.batches[rec.id] = rec
	s.batchOrder = append(s.batchOrder, rec.id)
	if len(s.batchOrder) > maxBatchRecords {
		evict := s.batchOrder[0]
		s.batchOrder = s.batchOrder[1:]
		delete(s.batches, evict)
	}
	s.batchMu.Unlock()

	status := http.StatusAccepted
	if allTerminal {
		status = http.StatusOK
	}
	writeJSON(w, status, s.batchViewOf(rec))
}

// handleBatchGet reports a batch's jobs and aggregate state. Batch
// envelopes are ephemeral (bounded in-memory table, not journaled):
// after eviction or a restart the jobs remain addressable individually
// but the envelope answers 404.
func (s *Server) handleBatchGet(w http.ResponseWriter, r *http.Request, ts *tenantState) {
	s.batchMu.Lock()
	rec := s.batches[r.PathValue("id")]
	s.batchMu.Unlock()
	if rec == nil || rec.tenant != ts.cfg.ID {
		writeError(w, http.StatusNotFound, apiError(ErrNotFound, errors.New("no such batch")))
		return
	}
	writeJSON(w, http.StatusOK, s.batchViewOf(rec))
}

// batchViewOf resolves a batch record against the live job table.
func (s *Server) batchViewOf(rec *batchRecord) batchView {
	v := batchView{
		ID:        rec.id,
		Tenant:    rec.tenant,
		Submitted: rec.submitted,
		Jobs:      make([]batchJobView, len(rec.refs)),
		States:    map[string]int{},
		Terminal:  true,
	}
	for i, ref := range rec.refs {
		jv := batchJobView{Index: ref.index, JobID: ref.jobID, Cached: ref.cached}
		if ref.dupOf != -1 {
			d := ref.dupOf
			jv.DuplicateOf = &d
		}
		if j := s.job(ref.jobID); j != nil {
			st, _ := j.terminalInfo()
			jv.State = st
			v.States[string(st)]++
			if !st.Terminal() {
				v.Terminal = false
			}
		} else {
			v.States["evicted"]++
		}
		v.Jobs[i] = jv
	}
	return v
}
