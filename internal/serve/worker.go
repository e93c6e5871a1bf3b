package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/jobspec"
	"repro/internal/variation"
)

// worker is one execution loop of the pool: it pops jobs off the
// fair-share queue until the queue closes and drains (shutdown), running
// each under a per-job context derived from the server's base context so
// both a client DELETE and a drain deadline cancel it. Every pop is
// paired with exactly one done() so the tenant's max_running slot is
// released even when the job is skipped or panics.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.met.depth.Set(float64(s.queue.depth()))
		// Fleet-internal shard sub-jobs are accounted by their originating
		// campaign on the dispatching node, not by this node's per-tenant
		// instruments.
		if !j.internal {
			s.met.tenantDepth(j.tenant).Set(float64(s.queue.tenantDepth(j.tenant)))
			s.met.tenantScheduled(j.tenant).Inc()
		}
		s.runJob(j)
		s.queue.done(j)
	}
}

// runJob executes one job end to end. Panics anywhere in the execution
// path are recovered here and fail the one job with the same structured
// PanicError the trial engines use — a pathological spec can never take
// down the server.
func (s *Server) runJob(j *Job) {
	if s.baseCtx.Err() != nil {
		// Drain deadline passed while this job sat in the queue.
		s.cancelJob(j, "server shut down before the job started")
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !j.start(cancel, time.Now()) {
		return // cancelled while queued; already finalized and counted
	}
	// Journal the transition: a crash from here until the terminal record
	// classifies the job as interrupted at replay.
	s.storeErr(s.cfg.Store.JobRunning(j.ID, time.Now()))
	_, submitted := j.snapshot()
	s.met.waitSecs.Observe(time.Since(submitted).Seconds())
	s.inflight.Add(1)
	s.met.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.met.inflight.Add(-1)
	}()
	started := time.Now()

	opts := jobspec.Options{
		// Resume carries the chunk checkpoints a dead process journaled for
		// this job (nil for fresh submissions): the campaign folds them in
		// and re-runs only the chunks past the last one.
		Resume: j.resume,
	}
	// A fleet-internal shard's dispatcher reads only its start and end,
	// and journals each of its chunks once itself.
	if !j.internal {
		opts.OnProgress = j.addProgress
		opts.ProgressEvery = s.cfg.ProgressEvery
		// Journal every completed campaign chunk: the durable unit of
		// resume. A crash from here on loses at most the chunk in flight.
		opts.OnCheckpoint = func(cp jobspec.Checkpoint) {
			s.storeErr(s.cfg.Store.JobCheckpoint(j.ID, cp.Seq, cp.Data, time.Now()))
			s.met.checkpoints.Inc()
		}
	}
	opts.RunShard = func(ctx context.Context, shard int, sub *jobspec.Spec) (*jobspec.Result, error) {
		return s.runShard(ctx, j, shard, sub)
	}
	opts.RunSub = s.runSubJob
	var (
		res *jobspec.Result
		err error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serve: job panicked: %w",
					&variation.PanicError{Value: r})
			}
		}()
		res, err = s.cfg.Execute(ctx, j.Spec, opts)
	}()
	// Deliberately no tenant stamp inside the result document: cached
	// results replay byte-identical across tenants, and the job view's
	// owner-scoped tenant field is the only place ownership belongs — a
	// cross-tenant cache hit must not reveal who computed the entry.
	//
	// Persist, then publish: once a client sees the terminal state, an
	// identical resubmission finds the result in the cache.
	o := j.settle(res, err, time.Now())
	s.persistTerminal(j.ID, o)
	j.finish(o)
	s.met.finished(o.state)
	// Completed-trial accounting feeds the fair-share share measurement:
	// Monte-Carlo jobs count their completed trials, everything else
	// counts 1 per finished job.
	if res != nil && res.MC != nil {
		s.met.tenantTrials(j.tenant).Add(int64(res.MC.Completed()))
	} else if o.state == StateDone {
		s.met.tenantTrials(j.tenant).Inc()
	}
	s.met.jobSecs.Observe(o.finished.Sub(submitted).Seconds())
	s.observeJobDuration(o.finished.Sub(started))
	s.enforceRetention(time.Now())
}

// runSubJob is the jobspec.Options.RunSub hook: one sub-job of a
// composite signoff campaign, answered from the spec-keyed result cache
// when an identical standalone submission already computed it, and
// executed in the parent job's worker slot otherwise. Running inline —
// not through the bounded queue — is deliberate: a campaign that
// enqueued its own sub-jobs while occupying a worker could deadlock a
// fully-loaded pool on itself.
func (s *Server) runSubJob(ctx context.Context, name string, sub *jobspec.Spec) (*jobspec.Result, bool, error) {
	if !sub.NoCache {
		if _, raw, ok := s.cfg.Store.CachedResult(sub.CanonicalHash()); ok {
			res := new(jobspec.Result)
			if err := json.Unmarshal(raw, res); err == nil {
				s.met.subjobsCached.Inc()
				return res, true, nil
			}
			// An undecodable cache snapshot falls through to execution.
		}
	}
	res, err := s.cfg.Execute(ctx, sub, jobspec.Options{})
	return res, false, err
}
