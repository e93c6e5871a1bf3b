package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/jobspec"
)

// Shard dispatch pacing and bounds.
const (
	// shardPollMin/Max bound the jittered exponential backoff of the
	// terminal-state poll against a peer: the first poll comes quickly
	// (short shards answer fast), long shards settle at one poll every
	// couple of seconds instead of hammering the peer at a fixed 50 ms.
	shardPollMin = 50 * time.Millisecond
	shardPollMax = 2 * time.Second
	// shardPollRetries bounds consecutive transient (transport-level)
	// poll failures tolerated before the dispatch is declared failed and
	// the shard falls back to local execution.
	shardPollRetries = 4
	// shardCleanupGrace bounds the best-effort DELETE that frees a peer's
	// worker when the campaign dies first. It runs detached from the
	// (already-cancelled) campaign context, but never longer than this.
	shardCleanupGrace = 2 * time.Second
)

// Dispatch failure causes, counted separately so an auth misconfig (a
// peer rejecting the fleet key or the shard's tenant) is
// distinguishable from a dead peer in the fallback metrics.
const (
	causeAuth        = "auth"
	causeUnreachable = "unreachable"
	causePeer        = "peer"
)

// dispatchFailure classifies why a shard dispatch failed.
type dispatchFailure struct {
	cause string // causeAuth | causeUnreachable | causePeer
	err   error
}

func (e *dispatchFailure) Error() string { return e.err.Error() }
func (e *dispatchFailure) Unwrap() error { return e.err }

func dispatchCause(err error) string {
	var df *dispatchFailure
	if errors.As(err, &df) {
		return df.cause
	}
	return causePeer
}

// runShard is the jobspec.Options.RunShard hook: shard k of job j's
// campaign runs on the least-loaded healthy fleet node — this one
// included, and always this one in a fleet of one — as a trial-range
// sub-job over the same /v1/jobs API this server exposes. Any dispatch
// failure — peer unreachable, submission rejected, shard job failed —
// falls back to executing the shard locally, so a dead peer costs
// throughput, never the campaign.
func (s *Server) runShard(ctx context.Context, j *Job, shard int, sub *jobspec.Spec) (*jobspec.Result, error) {
	peer := s.fleet.leastLoaded(shard, s.queue.depth()+int(s.met.inflight.Value()))
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
	switch dispatchCause(err) {
	case causeAuth:
		s.met.shardFallbacksAuth.Inc()
	case causeUnreachable:
		s.met.shardFallbacksUnreachable.Inc()
	}
	return jobspec.ExecuteOpts(ctx, sub, jobspec.Options{})
}

// shardHeaders attaches the credentials a peer demands of a shard
// request: the shared fleet key, scoped to the submitting job's tenant.
func (s *Server) shardHeaders(req *http.Request, tenant string) {
	req.Header.Set("Authorization", "Bearer "+s.fleet.cfg.Key)
	req.Header.Set(fleetTenantHeader, tenant)
}

// dispatchShard runs one shard sub-spec on a peer end to end: submit,
// poll to terminal with jittered exponential backoff, decode the
// result. All requests go through the dedicated shard client with a
// real timeout — a peer that accepts TCP but never answers times out
// instead of parking the campaign's worker goroutine forever.
func (s *Server) dispatchShard(ctx context.Context, peer, tenant string, sub *jobspec.Spec) (*jobspec.Result, error) {
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding shard spec: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("serve: shard submit: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	s.shardHeaders(req, tenant)
	resp, err := s.shardClient.Do(req)
	if err != nil {
		return nil, &dispatchFailure{cause: causeUnreachable,
			err: fmt.Errorf("serve: shard submit to %s: %w", peer, err)}
	}
	v, err := decodePeerView(peer, resp)
	if err != nil {
		return nil, err
	}
	// A 200 is the peer's result cache answering a previously computed
	// identical shard: already terminal, no polling needed.
	backoff := shardPollMin
	transient := 0
	for !v.State.Terminal() {
		// Full jitter up to 25% on top of the exponential step desynchronizes
		// the polls of concurrent shards against one peer.
		wait := backoff + time.Duration(rand.Int63n(int64(backoff)/4+1))
		select {
		case <-ctx.Done():
			s.cancelPeerShard(ctx, peer, tenant, v.ID)
			return nil, fmt.Errorf("serve: shard on %s: %w", peer, ctx.Err())
		case <-time.After(wait):
		}
		if backoff *= 2; backoff > shardPollMax {
			backoff = shardPollMax
		}
		greq, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/jobs/"+v.ID, nil)
		if err != nil {
			return nil, fmt.Errorf("serve: shard poll: %w", err)
		}
		s.shardHeaders(greq, tenant)
		gresp, err := s.shardClient.Do(greq)
		if err != nil {
			if ctx.Err() != nil {
				s.cancelPeerShard(ctx, peer, tenant, v.ID)
				return nil, fmt.Errorf("serve: shard on %s: %w", peer, ctx.Err())
			}
			// Transport-level poll failures are retried (bounded): a shard
			// mid-run on a briefly unreachable peer is not lost work.
			if transient++; transient > shardPollRetries {
				return nil, &dispatchFailure{cause: causeUnreachable,
					err: fmt.Errorf("serve: polling shard on %s: %w", peer, err)}
			}
			continue
		}
		nv, err := decodePeerView(peer, gresp)
		if err != nil {
			return nil, err
		}
		transient = 0
		v = nv
	}
	if v.State != StateDone {
		return nil, fmt.Errorf("serve: shard job %s on %s ended %s: %s", v.ID, peer, v.State, v.Error)
	}
	res := new(jobspec.Result)
	if err := json.Unmarshal(v.Result, res); err != nil {
		return nil, fmt.Errorf("serve: decoding shard result from %s: %w", peer, err)
	}
	return res, nil
}

// cancelPeerShard frees the peer's worker when the campaign dies before
// its shard does. The campaign context is already cancelled, so the
// request runs detached from it — but with its values intact and a
// short grace deadline, never the old context-free request that could
// hang as long as the dead peer held the socket open.
func (s *Server) cancelPeerShard(ctx context.Context, peer, tenant, id string) {
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), shardCleanupGrace)
	defer cancel()
	req, err := http.NewRequestWithContext(dctx, http.MethodDelete, peer+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	s.shardHeaders(req, tenant)
	if resp, err := s.shardClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

// decodePeerView consumes one peer API response into a job View,
// classifying any non-2xx status as a dispatch failure — 401/403 as an
// auth failure (misconfigured credentials), everything else as a peer
// verdict.
func decodePeerView(peer string, resp *http.Response) (View, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxSpecBytes))
	if err != nil {
		return View{}, &dispatchFailure{cause: causeUnreachable,
			err: fmt.Errorf("serve: reading peer %s response: %w", peer, err)}
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		cause := causePeer
		if resp.StatusCode == http.StatusUnauthorized || resp.StatusCode == http.StatusForbidden {
			cause = causeAuth
		}
		return View{}, &dispatchFailure{cause: cause,
			err: fmt.Errorf("serve: peer %s answered %d: %s", peer, resp.StatusCode, bytes.TrimSpace(b))}
	}
	var v View
	if err := json.Unmarshal(b, &v); err != nil {
		return View{}, fmt.Errorf("serve: decoding peer %s view: %w", peer, err)
	}
	return v, nil
}
