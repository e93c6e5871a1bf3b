package serve

import (
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
// job each spec index (the refs position) resolved to, and how (fresh,
// cache hit, or duplicate of an identical sibling spec).
type batchRecord struct {
	id        string
	tenant    string
	submitted time.Time
	refs      []batchJobRef
}

type batchJobRef struct {
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

// handleBatchSubmit admits one request carrying a sweep of specs through
// the same pipeline as a single submission (see admit), atomically:
// either every non-cached spec is enqueued or none is. Batch specs
// default to the batch priority class (X-Priority overrides) — a sweep
// should not preempt interactive work.
func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request, ts *tenantState) {
	class, err := requestClass(r, ClassBatch)
	if err != nil {
		writeError(w, http.StatusBadRequest, apiError(ErrBadArgument, err))
		return
	}
	batch := new(jobspec.Batch)
	if !decodeBody(w, r, "batch", batch) {
		return
	}
	err = batch.Validate()
	for i := 0; err == nil && i < len(batch.Specs); i++ {
		if perr := s.prepareSpec(batch.Specs[i]); perr != nil {
			err = fmt.Errorf("batch spec %d: %w", i, perr)
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, apiError(ErrInvalidSpec, err))
		return
	}
	jobs, dupOf := s.admit(w, ts, class, false, batch.Specs)
	if jobs == nil {
		return
	}
	rec := &batchRecord{tenant: ts.cfg.ID, submitted: time.Now(), refs: make([]batchJobRef, len(jobs))}
	status := http.StatusOK
	for i, j := range jobs {
		rec.refs[i] = batchJobRef{jobID: j.ID, cached: j.cached, dupOf: dupOf[i]}
		switch {
		case dupOf[i] != -1:
			s.met.batchDeduped.Inc()
		case j.cached:
			s.met.batchCached.Inc()
		}
		if !j.cached {
			status = http.StatusAccepted
		}
	}
	s.met.batches.Inc()

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
		jv := batchJobView{Index: i, JobID: ref.jobID, Cached: ref.cached}
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
