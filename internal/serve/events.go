package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// maxEventBatch bounds how many events one streamer copies out of the
// job's log per iteration. It caps the per-subscriber buffer (the copied
// slice) and the time spent holding the job's lock, so a thousand
// concurrent subscribers on one chatty job stay O(batch) each instead of
// repeatedly copying the whole log under the lock.
const maxEventBatch = 256

// handleEvents streams a job's event log as NDJSON: one JSON-encoded
// Event per line, flushed as produced, from the beginning of the log (or
// ?from=<seq>) until the job reaches a terminal state or the client
// disconnects. Because a job's terminal state and its terminal event
// commit under one lock, the stream always ends with exactly one of
// "done", "failed" or "cancelled". A reader that stops draining its
// socket is disconnected after Config.EventWriteTimeout rather than
// parking the handler goroutine (and its event buffer) forever.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, ts *tenantState) {
	id := r.PathValue("id")
	j := s.jobForTenant(id, ts)
	if j == nil {
		if s.forwardJob(w, r, id, ts) {
			return
		}
		writeError(w, http.StatusNotFound, apiError(ErrNotFound, errors.New("no such job")))
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest,
				apiError(ErrBadArgument, errors.New("from must be a non-negative integer")))
			return
		}
		// Explicit bounds check: a resume point past the end of the log
		// names events that do not exist. from == len(events) is the
		// legitimate "everything so far seen" resume (it waits on a live
		// job and ends immediately on a terminal one); anything beyond is
		// a client bug rejected deterministically instead of leaning on
		// slice semantics.
		if n > j.eventCount() {
			writeError(w, http.StatusBadRequest, apiError(ErrBadArgument,
				fmt.Errorf("from=%d is beyond the end of the event log (%d events)", n, j.eventCount())))
			return
		}
		from = n
	}
	s.met.subscribers.Add(1)
	defer s.met.subscribers.Add(-1)
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// The write deadline is the slow-reader guard. Test recorders do not
	// support deadlines (ErrNotSupported) — they aren't sockets, so there
	// is nothing to guard and the error is ignored.
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	for {
		evs, terminal, wait := j.eventsSince(from, maxEventBatch)
		if len(evs) > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.EventWriteTimeout))
			for _, ev := range evs {
				if err := enc.Encode(ev); err != nil {
					return // client went away or stopped reading
				}
			}
			from += len(evs)
			if flusher != nil {
				flusher.Flush()
			}
		}
		if len(evs) == maxEventBatch {
			// The log may hold more than one batch; drain before waiting.
			continue
		}
		if terminal {
			// The snapshot was taken atomically: terminal means the final
			// event is already in evs (or was streamed earlier).
			return
		}
		if len(evs) == 0 && flusher != nil {
			// Send the headers anyway: a client resuming with ?from= sees a
			// live stream.
			flusher.Flush()
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}
