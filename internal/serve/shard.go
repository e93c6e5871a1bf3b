package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobspec"
)

// Shard dispatch bounds.
const (
	// shardStreamRetries bounds consecutive failed attempts to open a
	// shard's event stream on a peer; an attempt that gets response
	// headers resets the count. Past the bound the peer counts as
	// unreachable and the shard falls back to local execution.
	shardStreamRetries = 4
	// shardCleanupGrace bounds the best-effort DELETE that frees a peer's
	// worker when the campaign dies first. It runs detached from the
	// (already-cancelled) campaign context, but never longer than this.
	shardCleanupGrace = 2 * time.Second
)

// A failed shard dispatch wraps one of these causes when it has one,
// so the fallback metrics tell an auth misconfig (a peer rejecting the
// fleet key or the shard's tenant) from a dead peer; any other failure
// is the peer's verdict on the shard.
var (
	errPeerAuth        = errors.New("peer refused the credentials")
	errPeerUnreachable = errors.New("peer unreachable")
)

// runShard is the jobspec.Options.RunShard hook: shard k of job j's
// campaign runs on the least-loaded healthy fleet node — this one
// included, and always this one in a fleet of one — as a trial-range
// sub-job over the same /v1/jobs API this server exposes. Any dispatch
// failure — peer unreachable, submission rejected, shard not started in
// time, shard job failed — falls back to executing the shard locally,
// so a dead or saturated peer costs throughput, never the campaign.
func (s *Server) runShard(ctx context.Context, j *Job, shard int, sub *jobspec.Spec) (*jobspec.Result, error) {
	peer := s.fleet.leastLoaded(shard, s.queue.depth()+int(s.inflight.Load()))
	if peer == "" {
		// Placement chose this node — least loaded, or no healthy peer.
		// Not a failure, just local work.
		s.met.shardsLocal.Inc()
		return jobspec.ExecuteOpts(ctx, sub, jobspec.Options{})
	}
	res, err := s.dispatchShard(ctx, peer, j.tenant, sub)
	if err == nil {
		s.met.shardsDispatched.Inc()
		return res, nil
	}
	if ctx.Err() != nil {
		// The campaign itself was cancelled; don't mask that with a local
		// re-run the merge would only have to cancel again.
		return nil, err
	}
	s.met.shardFallbacks.Inc()
	switch {
	case errors.Is(err, errPeerAuth):
		s.met.shardFallbacksAuth.Inc()
	case errors.Is(err, errPeerUnreachable):
		s.met.shardFallbacksUnreachable.Inc()
	}
	return jobspec.ExecuteOpts(ctx, sub, jobspec.Options{})
}

// shardRequest sends one node-to-node shard request through
// shardClient with the credentials a peer demands of it: the shared
// fleet key, scoped to the submitting job's tenant.
func (s *Server) shardRequest(ctx context.Context, method, url, tenant string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+s.fleet.cfg.Key)
	req.Header.Set(fleetTenantHeader, tenant)
	return s.shardClient.Do(req)
}

// dispatchShard runs one shard sub-spec on a peer end to end: submit,
// follow the job's event stream to its terminal event, fetch the result
// once. Every request has shardClient's real timeout, so a peer that
// accepts TCP and then stalls costs a fallback, never a worker
// goroutine parked forever.
func (s *Server) dispatchShard(ctx context.Context, peer, tenant string, sub *jobspec.Spec) (*jobspec.Result, error) {
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding shard spec: %w", err)
	}
	submitted := time.Now()
	resp, err := s.shardRequest(ctx, http.MethodPost, peer+"/v1/jobs", tenant, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("serve: shard submit to %s: %w: %w", peer, errPeerUnreachable, err)
	}
	v, err := decodePeerView(peer, resp)
	if err != nil {
		return nil, err
	}
	// A 200 is the peer's result cache answering a previously computed
	// identical shard, result included. A 202 never carries the result,
	// even when the shard finished before the answer was written.
	if v.Result == nil {
		ev, err := s.followShard(ctx, peer, tenant, v.ID, submitted)
		if err != nil {
			return nil, err
		}
		if State(ev.Type) != StateDone {
			return nil, fmt.Errorf("serve: shard job %s on %s ended %s: %s", v.ID, peer, ev.Type, ev.Error)
		}
		// The peer publishes the terminal event and the result together.
		resp, err := s.shardRequest(ctx, http.MethodGet, peer+"/v1/jobs/"+v.ID, tenant, nil)
		if err != nil {
			return nil, fmt.Errorf("serve: fetching shard %s from %s: %w: %w", v.ID, peer, errPeerUnreachable, err)
		}
		if v, err = decodePeerView(peer, resp); err != nil {
			return nil, err
		}
	}
	if v.Result == nil {
		return nil, fmt.Errorf("serve: shard job %s on %s answered no result", v.ID, peer)
	}
	return v.Result, nil
}

// followShard reads shard job id's NDJSON event stream on peer to the
// terminal event and returns it. shardClient's timeout also cuts a
// stream open that long; a cut or broken stream reopens past the events
// seen, and a failed reopen counts against shardStreamRetries. A live
// stream cut before the shard started means it sat queued on the peer
// for a whole ShardHTTPTimeout: it is withdrawn and run locally, or two
// nodes whose only workers each wait on shards queued on the other
// would wait forever.
func (s *Server) followShard(ctx context.Context, peer, tenant, id string, submitted time.Time) (Event, error) {
	seen, started, fails := 0, false, 0
	for {
		resp, err := s.shardRequest(ctx, http.MethodGet,
			peer+"/v1/jobs/"+id+"/events?from="+strconv.Itoa(seen), tenant, nil)
		switch {
		case err != nil:
			fails++
		case resp.StatusCode != http.StatusOK:
			_, err := decodePeerView(peer, resp) // classifies the refusal
			return Event{}, err
		default:
			fails = 0
			var terminal *Event
			// Reading to the end of the stream, which the peer closes after
			// the terminal event, keeps the connection for the fetch.
			for dec := json.NewDecoder(resp.Body); ; {
				var ev Event
				if dec.Decode(&ev) != nil {
					break
				}
				seen = ev.Seq + 1
				started = started || ev.Type == "started"
				if State(ev.Type).Terminal() {
					terminal = &ev
				}
			}
			resp.Body.Close()
			if terminal != nil {
				return *terminal, nil
			}
		}
		switch {
		case ctx.Err() != nil:
			s.cancelPeerShard(ctx, peer, tenant, id)
			return Event{}, fmt.Errorf("serve: shard on %s: %w", peer, ctx.Err())
		case fails > shardStreamRetries:
			return Event{}, fmt.Errorf("serve: following shard %s on %s: %w: %w", id, peer, errPeerUnreachable, err)
		case err == nil && !started && time.Since(submitted) >= s.cfg.ShardHTTPTimeout:
			s.cancelPeerShard(ctx, peer, tenant, id)
			return Event{}, fmt.Errorf("serve: shard job %s on %s not started within %s", id, peer, s.cfg.ShardHTTPTimeout)
		}
	}
}

// cancelPeerShard frees the peer's worker when the campaign dies before
// its shard does, or withdraws a shard the peer never started. The
// request runs detached from the campaign context, which may already
// be cancelled, with its values intact and a short grace deadline.
func (s *Server) cancelPeerShard(ctx context.Context, peer, tenant, id string) {
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), shardCleanupGrace)
	defer cancel()
	if resp, err := s.shardRequest(dctx, http.MethodDelete, peer+"/v1/jobs/"+id, tenant, nil); err == nil {
		resp.Body.Close()
	}
}

// peerView is what a shard dispatch reads of a peer's job view: not the
// spec, which the dispatcher already has.
type peerView struct {
	ID     string          `json:"id"`
	Result *jobspec.Result `json:"result"`
}

// decodePeerView consumes one peer API response into a peerView; any
// status but 200 and 202 is a failure, an auth failure on 401/403.
func decodePeerView(peer string, resp *http.Response) (peerView, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxSpecBytes))
	if err != nil {
		return peerView{}, fmt.Errorf("serve: reading peer %s response: %w: %w", peer, errPeerUnreachable, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		err := fmt.Errorf("serve: peer %s answered %d: %s", peer, resp.StatusCode, bytes.TrimSpace(b))
		if resp.StatusCode == http.StatusUnauthorized || resp.StatusCode == http.StatusForbidden {
			err = fmt.Errorf("%w: %w", errPeerAuth, err)
		}
		return peerView{}, err
	}
	var v peerView
	if err := json.Unmarshal(b, &v); err != nil {
		return peerView{}, fmt.Errorf("serve: decoding peer %s view: %w", peer, err)
	}
	return v, nil
}
