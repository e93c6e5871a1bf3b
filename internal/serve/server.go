// Package serve is the long-running reliability-simulation job service —
// the paper's §5.2 resilience loop (monitor → control → knob) presumes
// reliability analyses run continuously as parameterized campaigns, and
// this package turns the one-shot engines into exactly that. It exposes
// a multi-tenant HTTP API over the versioned jobspec schema: submit
// (POST /v1/jobs), submit a sweep (POST /v1/batches), poll
// (GET /v1/jobs/{id}), stream per-trial/per-checkpoint progress as
// NDJSON (GET /v1/jobs/{id}/events), cancel (DELETE /v1/jobs/{id}) and
// list (GET /v1/jobs, paginated). A job is a batch of one: both submit
// routes run one admission pipeline (admit) that folds identical specs,
// answers cache hits, debits the trial-rate budget, queues atomically
// and journals every admitted job. Tenants are authenticated by static
// API keys from a keyfile; each carries a fair-share weight, queue and
// concurrency quotas and a trial-rate budget, and a weighted fair-share
// scheduler with interactive/batch priority classes replaces the old
// single FIFO so no tenant can starve another. Quota rejections answer
// 429 with a structured error envelope and a Retry-After derived from
// the tenant's own backlog; global capacity exhaustion keeps the old
// 503. Behind the API sits a worker pool sized off GOMAXPROCS driving
// jobspec.Execute with per-job cancellation, obs instruments folded
// into the shared registry, and graceful shutdown that stops admission,
// drains running jobs up to a deadline and persists partial results.
// Jobs inherit the engines' fault isolation: a panicking trial fails
// one job, never the server.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/store"
)

// ExecFunc runs one job. The default is jobspec.ExecuteOpts; tests
// substitute controllable executors to exercise the lifecycle.
type ExecFunc func(ctx context.Context, spec *jobspec.Spec, opts jobspec.Options) (*jobspec.Result, error)

// Config parameterizes a Server. The zero value is usable: every field
// has a production default.
type Config struct {
	// QueueDepth bounds the number of accepted-but-not-running jobs
	// (default 64). Submissions beyond it are rejected with 503.
	QueueDepth int
	// Workers sizes the execution pool (default GOMAXPROCS).
	Workers int
	// DefaultTimeout is applied to specs that carry no timeout of their
	// own (0 = unbounded).
	DefaultTimeout time.Duration
	// Registry receives the serve_* instruments and is served on the
	// job mux at /metrics, /metrics.json and /debug/vars (nil disables
	// both).
	Registry *obs.Registry
	// Execute overrides the job executor (tests); nil means
	// jobspec.ExecuteOpts.
	Execute ExecFunc
	// ProgressEvery forwards to jobspec.Options: emit every k-th
	// progress sample (0 = auto, ~200 samples per job).
	ProgressEvery int
	// Store journals job lifecycles and results and holds the spec-keyed
	// result cache. Nil opens an in-memory store (store.Open with no
	// directory): the same cache and retention, nothing survives a
	// restart. Jobs recovered by a disk store are restored by NewServer:
	// terminal jobs are served without recomputation, queued jobs are
	// re-enqueued, Monte-Carlo campaigns interrupted mid-run are
	// re-enqueued with their journaled chunk checkpoints and resumed, and
	// interrupted jobs of other kinds are failed with a structured
	// InterruptedError.
	// Workers journal one checkpoint per completed campaign chunk, so a
	// process crash loses at most the chunk that was in flight (a power
	// loss also the checkpoints of one store commit window).
	Store *store.Store
	// Fleet, when set, federates this server with the other nodes of the
	// table: node-prefixed job IDs, request forwarding to owners,
	// health-probed least-backlog shard placement (campaign shards of
	// mc.shards > 1 specs go to the least-loaded healthy node, falling
	// back to local execution when a dispatch fails), fleet-wide tenant
	// max_running, and journal-replay failover for dead peers. Load it
	// with LoadFleet; an invalid config panics in NewServer, because
	// silently running un-federated would mask a misconfigured fleet.
	// Nil runs the server as a fleet of one: no peers, no fleet key,
	// unprefixed job IDs, and every shard placed on this node.
	Fleet *FleetConfig
	// ShardHTTPTimeout bounds every node-to-node shard dispatch request
	// (default 15s), so a peer that accepts TCP and then stalls costs a
	// fallback, not a worker goroutine parked forever. It also cuts a
	// shard's event stream, which reopens, and a shard the peer has not
	// started within it is withdrawn and run locally.
	ShardHTTPTimeout time.Duration
	// MaxTerminalJobs bounds the retained terminal jobs (default 512,
	// negative = unbounded); the oldest are evicted first. Queued and
	// running jobs are never evicted. This is what keeps a long-running
	// server's memory — and, with a Store, its disk journal — flat under
	// sustained traffic.
	MaxTerminalJobs int
	// MaxTerminalAge evicts terminal jobs older than this (0 = no age
	// bound). Age is measured from the job's finish time and enforced on
	// admission and job completion.
	MaxTerminalAge time.Duration
	// Tenants is the static tenant table (id, API key, weight, quotas).
	// Empty is a table of one open tenant: no authentication, every
	// request acts for DefaultTenant with weight 1 and no quotas, scoped
	// exactly as a keyed tenant is. Non-empty means every /v1 request
	// must present a listed key.
	Tenants []TenantConfig
	// EventWriteTimeout bounds one NDJSON write on a /v1/jobs/{id}/events
	// stream (default 10s): a reader that stops draining its socket is
	// disconnected instead of parking a handler goroutine forever.
	EventWriteTimeout time.Duration
}

// Server is the job service. Create it with NewServer — the worker pool
// starts immediately — mount it on any listener via http.Handler, and
// stop it with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	queue   *jobQueue
	met     *metrics
	tenants *tenantSet
	baseCtx context.Context
	stopAll context.CancelFunc
	wg      sync.WaitGroup

	// Fleet state: never nil — a server without a fleet config is a
	// fleet of one. nodeID/idPrefix derive from Fleet.Self ("" / ""
	// single-node); the clients separate concerns —
	// shardClient and probeClient carry real timeouts, streamClient (event
	// forwarding) is bounded only by a dial timeout plus the caller's own
	// request context, because a streamed job can legitimately run for
	// hours.
	fleet        *fleetState
	nodeID       string
	idPrefix     string
	shardClient  *http.Client
	probeClient  *http.Client
	streamClient *http.Client
	proberStop   chan struct{}
	proberOnce   sync.Once
	// ready flips once journal replay and restore have completed; until
	// then /readyz answers 503 not_ready (liveness /healthz is unaffected).
	ready atomic.Bool
	// inflight counts jobs executing on the worker pool, the load that
	// placement and probes read; the serve_jobs_inflight gauge mirrors it.
	inflight atomic.Int64

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	draining bool

	// batchMu guards the ephemeral batch table: groupings of job IDs per
	// POST /v1/batches, kept for GET /v1/batches/{id} aggregation. The
	// jobs themselves are journaled; the grouping is in-memory only and
	// bounded (oldest evicted), so a restart keeps every job and result
	// but forgets which batch envelope they arrived in.
	batchMu     sync.Mutex
	batches     map[string]*batchRecord
	batchOrder  []string
	nextBatchID int

	// durMu guards durEWMA, the smoothed execution time (seconds) of
	// recently finished jobs, which load-scales the Retry-After hint.
	durMu   sync.Mutex
	durEWMA float64
}

// NewServer builds a server, restores any jobs recovered by the
// configured store, and starts its worker pool.
func NewServer(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Execute == nil {
		cfg.Execute = jobspec.ExecuteOpts
	}
	if cfg.MaxTerminalJobs == 0 {
		cfg.MaxTerminalJobs = 512
	}
	if cfg.EventWriteTimeout <= 0 {
		cfg.EventWriteTimeout = 10 * time.Second
	}
	if cfg.ShardHTTPTimeout <= 0 {
		cfg.ShardHTTPTimeout = 15 * time.Second
	}
	if cfg.Store == nil {
		// An in-memory open cannot fail.
		cfg.Store, _ = store.Open("", cfg.Registry, store.Options{})
	}
	recovered := cfg.Store.Recovered()
	// A restart may hand back more runnable jobs (queued plus resumable
	// campaigns) than the configured depth; the queue grows to fit them
	// so recovery never drops accepted work. Admission backpressure
	// still kicks in at the same occupancy.
	depth := cfg.QueueDepth
	if n := countRecoveredRunnable(recovered); n > depth {
		depth = n
	}
	fc := cfg.Fleet
	if fc == nil {
		// A fleet of one: no peers, no key (which authenticates nothing),
		// Self "" (unprefixed job IDs).
		fc = new(FleetConfig)
	}
	fc.applyDefaults()
	idPrefix := ""
	if cfg.Fleet != nil {
		if err := fc.validate(); err != nil {
			panic(err) // a misconfigured fleet must not run silently un-federated
		}
		idPrefix = fc.Self + "-"
	}
	fleet := newFleetState(fc)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		queue:    newJobQueue(depth, fleet.runningFor),
		met:      newMetrics(cfg.Registry),
		tenants:  newTenantSet(cfg.Tenants, fc.Key),
		baseCtx:  ctx,
		stopAll:  cancel,
		fleet:    fleet,
		nodeID:   fc.Self,
		idPrefix: idPrefix,
		// Probes must fail fast relative to their own cadence; shard
		// dispatch can afford the longer timeout. Probes dial fresh every
		// time: a cached keep-alive connection to a node whose listener
		// died still answers, turning the health check into a liveness
		// check of a stale socket.
		shardClient: &http.Client{Timeout: cfg.ShardHTTPTimeout},
		probeClient: &http.Client{
			Timeout:   min(2*time.Duration(fc.ProbeEvery), 10*time.Second, cfg.ShardHTTPTimeout),
			Transport: &http.Transport{DisableKeepAlives: true},
		},
		streamClient: &http.Client{Transport: &http.Transport{
			DialContext: (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		}},
		proberStop: make(chan struct{}),
		jobs:       make(map[string]*Job),
		batches:    make(map[string]*batchRecord),
	}
	s.routes()
	s.restore(recovered)
	s.ready.Store(true)
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	if len(s.fleet.peers) > 0 {
		s.wg.Add(1)
		go s.prober()
	}
	return s
}

// tenantCfg returns the config of a tenant id, nil for tenants this
// server does not know (a journal written under another keyfile).
func (s *Server) tenantCfg(id string) *TenantConfig {
	if st := s.tenants.byID[id]; st != nil {
		return &st.cfg
	}
	return nil
}

func countRecoveredRunnable(recovered []store.RecoveredJob) int {
	n := 0
	for _, r := range recovered {
		if r.State == store.StateQueued || resumable(r) {
			n++
		}
	}
	return n
}

// restore rebuilds the job table from the store's replayed journal,
// before the worker pool starts: terminal jobs are served as-is (their
// persisted results byte-identical), queued jobs go back on the queue,
// interrupted Monte-Carlo campaigns re-enqueue with their journaled
// checkpoints so the worker resumes them from the last completed chunk,
// and other jobs that died mid-run are finalized as failed with a
// structured InterruptedError — a new transition in this process, so it
// is counted and journaled, and the next restart replays it as plain
// failed. Fair-share accounting survives the restart: every recovered
// job that had reached a worker counts toward its tenant's scheduled
// total, so a tenant that consumed more than its share before the crash
// does not restart at parity.
func (s *Server) restore(recovered []store.RecoveredJob) {
	now := time.Now()
	scheduled := map[string]int{}
	for _, r := range recovered {
		j := restoredJob(r, now)
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		// The ID counter resumes past this node's own jobs; adopted jobs
		// carry another node's prefix and must not advance it.
		if n, ok := jobSeq(r.ID, s.idPrefix); ok && n > s.nextID {
			s.nextID = n
		}
		if !r.Started.IsZero() {
			scheduled[j.laneID()]++
		}
		switch r.State {
		case store.StateQueued:
			s.requeue(j, "recovered queued job")
		case store.StateInterrupted:
			if resumable(r) {
				s.met.resumed.Inc()
				s.requeue(j, "recovered campaign")
				break
			}
			s.met.finished(StateFailed)
			s.persistTerminal(j.ID, j.terminalSnapshot())
		}
	}
	s.queue.restoreScheduled(scheduled, s.tenantCfg)
	s.met.depth.Set(float64(s.queue.depth()))
	s.enforceRetention(now)
}

// authed wraps a /v1 handler with tenant authentication. Without a
// keyfile every request passes as the default tenant; with one, a
// missing or unknown key answers 401 before the handler runs.
func (s *Server) authed(h func(http.ResponseWriter, *http.Request, *tenantState)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ts, ok := s.tenants.authenticate(r)
		if !ok {
			writeError(w, http.StatusUnauthorized,
				apiError(ErrUnauthorized, errors.New("missing or unknown API key")))
			return
		}
		h(w, r, ts)
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/jobs", s.authed(s.handleSubmit))
	s.mux.HandleFunc("GET /v1/jobs", s.authed(s.handleList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.authed(s.handleGet))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.authed(s.handleCancel))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.authed(s.handleEvents))
	s.mux.HandleFunc("POST /v1/batches", s.authed(s.handleBatchSubmit))
	s.mux.HandleFunc("GET /v1/batches/{id}", s.authed(s.handleBatchGet))
	s.mux.HandleFunc("GET /v1/fleet", s.authed(s.handleFleet))
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	if s.cfg.Registry != nil {
		// One listener for jobs and observability: the obs endpoints ride
		// the job mux, so -serve needs no separate -metrics-addr.
		h := obs.Handler(s.cfg.Registry)
		s.mux.Handle("GET /metrics", h)
		s.mux.Handle("GET /metrics.json", h)
		s.mux.Handle("GET /debug/vars", h)
		// The expvar dump only contains the registry once it is published;
		// the fixed name makes this idempotent process-wide.
		obs.PublishExpvar("obs", s.cfg.Registry)
	}
}

// ServeHTTP makes the server mountable on any http.Server or test mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown gracefully stops the server: admission closes (new submits
// get 503), workers drain queued and running jobs, and when ctx expires
// before the drain completes every active job's context is cancelled so
// the engines return — and the jobs persist — their partial results. It
// returns ctx.Err() when the deadline forced the drain, nil on a clean
// drain. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.proberOnce.Do(func() { close(s.proberStop) })
	s.queue.close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.stopAll() // cancel every running job; engines return partials
		<-done
	}
	s.stopAll()
	return err
}

// track publishes admitted jobs in the job table under the next job IDs
// (node-prefixed in fleet mode, so IDs are unique fleet-wide and name
// their owner).
func (s *Server) track(jobs []*Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range jobs {
		s.nextID++
		j.ID = fmt.Sprintf("%sjob-%06d", s.idPrefix, s.nextID)
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	}
}

func (s *Server) removeJob(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; !ok {
		return
	}
	delete(s.jobs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// persistTerminal journals a job's terminal outcome (and, when the
// result is a complete cacheable computation, enters it into the
// spec-hash cache). Store write failures are counted, not fatal: the
// job's in-memory state is still serveable.
func (s *Server) persistTerminal(id string, o outcome) {
	s.storeErr(s.cfg.Store.JobTerminal(id, string(o.state), o.errMsg, o.result, o.cacheable, o.finished))
}

// cancelJob asks a job to stop. When that finalizes it on the spot (it
// was still queued), the cancellation is counted and journaled here;
// a running job finalizes through its worker instead.
func (s *Server) cancelJob(j *Job, reason string) {
	if j.requestCancel(reason) {
		s.met.finished(StateCancelled)
		s.persistTerminal(j.ID, j.terminalSnapshot())
	}
}

// requeue puts a recovered or adopted job back on the queue. The push
// can only fail once a drain has begun, and a job it drops must still
// reach a terminal state.
func (s *Server) requeue(j *Job, what string) bool {
	// Fleet-internal shard sub-jobs share the quota-exempt fleet lane.
	cfg := s.tenantCfg(j.tenant)
	if j.internal {
		cfg = nil
	}
	if err := s.queue.forcePush(cfg, j); err != nil {
		s.cancelJob(j, what+" dropped: "+err.Error())
		return false
	}
	return true
}

// persistSubmitted journals a job's admission with its tenant/class
// provenance, so a restart rebuilds both the job and the fair-share
// accounting it participates in.
func (s *Server) persistSubmitted(j *Job, now time.Time) {
	s.storeErr(s.cfg.Store.JobSubmitted(j.ID, j.Spec, j.specHash,
		store.SubmitMeta{Tenant: j.tenant, Class: j.class,
			Node: s.nodeID, Internal: j.internal}, now))
}

// storeErr counts a store write failure (nil is a no-op).
func (s *Server) storeErr(err error) {
	if err != nil {
		s.met.storeErrors.Inc()
	}
}

// enforceRetention applies the terminal-job retention policy: at most
// MaxTerminalJobs retained terminal jobs (oldest submitted evicted
// first) and none finished longer than MaxTerminalAge ago. Queued and
// running jobs are never evicted. Evictions propagate to the store,
// where journal compaction reclaims the disk — the in-memory map and
// the journal enforce one consistent bound. This is the fix for the
// unbounded retention leak: without it every terminal job (spec, event
// log, result) lived for the life of the process.
func (s *Server) enforceRetention(now time.Time) {
	maxN := s.cfg.MaxTerminalJobs
	maxAge := s.cfg.MaxTerminalAge
	if maxN < 0 && maxAge <= 0 {
		return
	}
	s.mu.Lock()
	type term struct {
		id       string
		finished time.Time
	}
	var terminal []term
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		if st, fin := j.terminalInfo(); st.Terminal() {
			terminal = append(terminal, term{id, fin})
		}
	}
	over := 0
	if maxN >= 0 {
		over = len(terminal) - maxN
	}
	var drop []string
	for i, t := range terminal {
		evict := i < over
		if !evict && maxAge > 0 && !t.finished.IsZero() && now.Sub(t.finished) > maxAge {
			evict = true
		}
		if evict {
			drop = append(drop, t.id)
		}
	}
	if len(drop) > 0 {
		dropSet := make(map[string]bool, len(drop))
		for _, id := range drop {
			dropSet[id] = true
			delete(s.jobs, id)
		}
		live := s.order[:0]
		for _, id := range s.order {
			if !dropSet[id] {
				live = append(live, id)
			}
		}
		s.order = live
	}
	s.mu.Unlock()
	if len(drop) == 0 {
		return
	}
	s.met.evicted.Add(int64(len(drop)))
	s.storeErr(s.cfg.Store.Evict(drop, now))
}

// retryAfter derives the backpressure hint from load: the queued work
// ahead of a retrying client, spread over the worker pool, at the
// smoothed recent job duration. Clamped to [1, 300] s so a cold server
// still answers "1" and a pathological backlog cannot park clients for
// hours.
func retryAfter(depth, workers int, avgSec float64) int {
	if workers < 1 {
		workers = 1
	}
	est := math.Ceil(float64(depth+1) * avgSec / float64(workers))
	switch {
	case est < 1:
		return 1
	case est > 300:
		return 300
	}
	return int(est)
}

func (s *Server) avgJobSec() float64 {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	return s.durEWMA
}

func (s *Server) retryAfterHint() int {
	return retryAfter(s.queue.depth(), s.cfg.Workers, s.avgJobSec())
}

// tenantRetryAfterHint estimates when the tenant's own backlog will have
// drained enough to admit again: its queued jobs spread over the workers
// it can actually occupy (its max_running cap, if tighter than the
// pool). This is the 429 hint — a function of the tenant's own state,
// deliberately independent of other tenants' backlogs.
func (s *Server) tenantRetryAfterHint(cfg *TenantConfig) int {
	workers := s.cfg.Workers
	if cfg.MaxRunning > 0 && cfg.MaxRunning < workers {
		workers = cfg.MaxRunning
	}
	return retryAfter(s.queue.tenantDepth(cfg.ID), workers, s.avgJobSec())
}

// observeJobDuration folds one finished job's execution time into the
// smoothed estimate behind Retry-After.
func (s *Server) observeJobDuration(d time.Duration) {
	s.durMu.Lock()
	if sec := d.Seconds(); s.durEWMA == 0 {
		s.durEWMA = sec
	} else {
		s.durEWMA = 0.7*s.durEWMA + 0.3*sec
	}
	s.durMu.Unlock()
}

func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// jobForTenant resolves a job id within the caller's tenant scope: a
// job owned by another tenant is reported exactly like a missing one,
// so ids cannot be probed across tenants.
func (s *Server) jobForTenant(id string, ts *tenantState) *Job {
	if j := s.job(id); j != nil && j.tenant == ts.cfg.ID {
		return j
	}
	return nil
}

// requestClass resolves the X-Priority header to a scheduling class.
func requestClass(r *http.Request, def string) (string, error) {
	c := r.Header.Get("X-Priority")
	if c == "" {
		return def, nil
	}
	if !validClass(c) {
		return "", fmt.Errorf("unknown priority class %q (want %q or %q)",
			c, ClassInteractive, ClassBatch)
	}
	return c, nil
}

// maxSpecBytes bounds a submitted spec or batch (netlists ride inline).
const maxSpecBytes = 8 << 20

// rejectPush maps a queue admission error to its wire response: tenant
// quota → 429 tenant_queue_full with the tenant's own backlog as
// Retry-After; global capacity or drain → 503 with the load-scaled
// global hint.
func (s *Server) rejectPush(w http.ResponseWriter, err error, ts *tenantState) {
	var tqf *errTenantQueueFull
	if errors.As(err, &tqf) {
		s.met.tenantRejected(tqf.tenant).Inc()
		body := apiError(ErrTenantQueueFull, err)
		body.RetryAfterS = s.tenantRetryAfterHint(&ts.cfg)
		writeError(w, http.StatusTooManyRequests, body)
		return
	}
	s.met.rejected.Inc()
	code := ErrQueueFull
	if errors.Is(err, errDraining) {
		code = ErrDraining
	}
	body := apiError(code, err)
	body.RetryAfterS = s.retryAfterHint()
	writeError(w, http.StatusServiceUnavailable, body)
}

// admitRate debits the tenant's trial-rate bucket for cost trials; on an
// empty bucket it answers the 429 itself and returns false.
func (s *Server) admitRate(w http.ResponseWriter, ts *tenantState, cost float64) bool {
	ok, wait := ts.takeTrials(cost, time.Now())
	if ok {
		return true
	}
	s.met.tenantRejected(ts.cfg.ID).Inc()
	body := apiError(ErrRateLimited, fmt.Errorf(
		"serve: tenant %s trial-rate budget exhausted (%.0f trials requested)", ts.cfg.ID, cost))
	body.RetryAfterS = wait
	writeError(w, http.StatusTooManyRequests, body)
	return false
}

// decodeBody strictly decodes a submission body (at most maxSpecBytes,
// unknown fields refused) into v, answering the 400 itself on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, apiError(ErrInvalidSpec, fmt.Errorf("decoding %s: %w", what, err)))
		return false
	}
	return true
}

// prepareSpec applies the rules every submitted spec shares, alone or in
// a batch: inline netlists only, ApplyDefaults, the server's default
// timeout, then Validate.
func (s *Server) prepareSpec(spec *jobspec.Spec) error {
	if spec.NetlistFile != "" {
		return errors.New("the job server accepts inline netlists only (set \"netlist\", not \"netlist_file\")")
	}
	spec.ApplyDefaults()
	if s.cfg.DefaultTimeout > 0 && spec.Timeout == 0 {
		spec.Timeout = jobspec.Duration(s.cfg.DefaultTimeout)
	}
	return spec.Validate()
}

// admit is the one admission pipeline: POST /v1/jobs is a batch of one.
// Every analysis is a pure function of the defaults-applied (Spec, Seed),
// which is what lets it fold and cache. In order, it:
//  1. fold specs identical after defaulting (equal CanonicalHash) onto
//     their first occurrence;
//  2. answer cache hits with the persisted snapshot, as jobs born done —
//     no queue slot, no trial-rate debit;
//  3. debit the tenant's trial-rate bucket for the work that will run
//     (fleet-internal shard submissions were charged on the dispatching
//     node and skip it);
//  4. push the runnable jobs atomically, tenant quota first, then global
//     capacity — the push refuses every admission, cached ones included,
//     once a drain has begun — refunding the debit on rejection;
//  5. count and journal every admitted job, queued or cached; the
//     per-tenant instruments skip fleet-internal ones;
//  6. enforce retention.
//
// On refusal it answers the error itself and returns nil. Otherwise
// jobs[i] answers specs[i], and dupOf[i] is the index of the earlier
// identical spec whose job it shares (-1 for a spec with its own job).
func (s *Server) admit(w http.ResponseWriter, ts *tenantState, class string, internal bool, specs []*jobspec.Spec) (jobs []*Job, dupOf []int) {
	tenant := ts.cfg.ID
	now := time.Now()
	jobs, dupOf = make([]*Job, len(specs)), make([]int, len(specs))
	first := make(map[string]int, len(specs))
	var admitted, queued []*Job
	cost := 0.0
	for i, sp := range specs {
		hash := sp.CanonicalHash()
		if d, seen := first[hash]; seen {
			jobs[i], dupOf[i] = jobs[d], d
			continue
		}
		first[hash], dupOf[i] = i, -1
		var raw json.RawMessage
		hit := false
		if !sp.NoCache {
			_, raw, hit = s.cfg.Store.CachedResult(hash)
		}
		if hit {
			jobs[i] = newCachedJob(sp, hash, tenant, class, raw, now)
		} else {
			jobs[i] = newJob(sp, hash, tenant, class, now)
			queued = append(queued, jobs[i])
			cost += trialCost(sp)
		}
		jobs[i].internal = internal
		admitted = append(admitted, jobs[i])
	}
	var pushCfg *TenantConfig
	if internal {
		cost = 0 // charged to the campaign on the dispatching node
	} else {
		pushCfg = s.tenantCfg(tenant)
	}
	if !s.admitRate(w, ts, cost) {
		return nil, nil
	}
	s.track(admitted)
	if err := s.queue.tryPush(pushCfg, queued...); err != nil {
		for _, j := range admitted {
			s.removeJob(j.ID)
		}
		ts.refund(cost)
		s.rejectPush(w, err, ts)
		return nil, nil
	}
	for _, j := range admitted {
		s.met.kindCounter(j.Spec.Analysis).Inc()
		s.persistSubmitted(j, now)
		if j.cached {
			s.met.finished(StateDone)
			s.persistTerminal(j.ID, j.terminalSnapshot())
		}
	}
	s.met.submitted.Add(int64(len(admitted)))
	s.met.depth.Set(float64(s.queue.depth()))
	if !internal {
		s.met.tenantAdmitted(tenant).Add(int64(len(admitted)))
		s.met.tenantDepth(tenant).Set(float64(s.queue.tenantDepth(tenant)))
	}
	s.enforceRetention(now)
	return jobs, dupOf
}

// handleSubmit admits one spec — a batch of one, answered with the job
// view: 200 for a job born done from the result cache, 202 when queued.
// Fleet-internal submissions (a peer dispatching a campaign shard with
// the shared fleet key) bypass per-tenant admission and schedule from
// the quota-exempt fleet lane.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, ts *tenantState) {
	class, err := requestClass(r, ClassInteractive)
	if err != nil {
		writeError(w, http.StatusBadRequest, apiError(ErrBadArgument, err))
		return
	}
	spec := new(jobspec.Spec)
	if !decodeBody(w, r, "spec", spec) {
		return
	}
	if err := s.prepareSpec(spec); err != nil {
		writeError(w, http.StatusBadRequest, apiError(ErrInvalidSpec, err))
		return
	}
	jobs, _ := s.admit(w, ts, class, s.isFleetReq(r), []*jobspec.Spec{spec})
	if jobs == nil {
		return
	}
	if j := jobs[0]; j.cached {
		writeJSON(w, http.StatusOK, j.view(true))
	} else {
		writeJSON(w, http.StatusAccepted, j.view(false))
	}
}

// List pagination bounds.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

func (s *Server) handleList(w http.ResponseWriter, r *http.Request, ts *tenantState) {
	q := r.URL.Query()
	limit := defaultListLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest,
				apiError(ErrBadArgument, errors.New("limit must be a positive integer")))
			return
		}
		if n > maxListLimit {
			n = maxListLimit
		}
		limit = n
	}
	stateFilter := q.Get("state")
	if stateFilter != "" && !State(stateFilter).Terminal() &&
		State(stateFilter) != StateQueued && State(stateFilter) != StateRunning {
		writeError(w, http.StatusBadRequest,
			apiError(ErrBadArgument, fmt.Errorf("unknown state %q", stateFilter)))
		return
	}
	// Tenant scope: the listing is always the caller's own jobs, and
	// naming any other tenant is refused.
	own := ts.cfg.ID
	if t := q.Get("tenant"); t != "" && t != own {
		writeError(w, http.StatusForbidden,
			apiError(ErrForbidden, fmt.Errorf("key is not tenant %q", t)))
		return
	}
	token := q.Get("page_token")
	// Snapshot under the lock, skipping ids whose jobs were evicted
	// between the order copy and the map read — the list must stay
	// stable (no gaps, no nils) while the retention policy runs. s.order
	// is submit-ordered, so the page token — the last job ID of the
	// previous page — resumes positionally: find it in the order and
	// continue one past it. In fleet mode adopted jobs interleave foreign
	// node prefixes into the order, so IDs are no longer lexicographically
	// monotonic; only when the token's job has been evicted does the scan
	// fall back to the old string comparison (safe: eviction is
	// oldest-first, so everything retained after an evicted token is
	// lexicographically past it within one node's sequence).
	s.mu.Lock()
	start := 0
	if token != "" {
		start = -1
		for i, id := range s.order {
			if id == token {
				start = i + 1
				break
			}
		}
	}
	jobs := make([]*Job, 0, len(s.order))
	for i, id := range s.order {
		if token != "" {
			if start >= 0 {
				if i < start {
					continue
				}
			} else if id <= token {
				continue
			}
		}
		if j := s.jobs[id]; j != nil && j.tenant == own {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	views := make([]View, 0, min(limit, len(jobs)))
	next := ""
	for _, j := range jobs {
		v := j.view(false)
		if stateFilter != "" && string(v.State) != stateFilter {
			continue
		}
		if len(views) == limit {
			// One past the page: there is more, so the page token is the
			// last returned job's ID.
			next = views[limit-1].ID
			break
		}
		views = append(views, v)
	}
	resp := map[string]any{"jobs": views}
	if next != "" {
		resp["next_page_token"] = next
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, ts *tenantState) {
	id := r.PathValue("id")
	j := s.jobForTenant(id, ts)
	if j == nil {
		if s.forwardJob(w, r, id, ts) {
			return
		}
		writeError(w, http.StatusNotFound, apiError(ErrNotFound, errors.New("no such job")))
		return
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, ts *tenantState) {
	id := r.PathValue("id")
	j := s.jobForTenant(id, ts)
	if j == nil {
		if s.forwardJob(w, r, id, ts) {
			return
		}
		writeError(w, http.StatusNotFound, apiError(ErrNotFound, errors.New("no such job")))
		return
	}
	s.cancelJob(j, "cancelled by client")
	writeJSON(w, http.StatusOK, j.view(true))
}

// handleHealth is liveness: the process is up and serving HTTP. It
// reports state (including draining) but never fails for it — use
// /readyz to take a draining or replaying instance out of rotation.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	total := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"draining":    draining,
		"jobs":        total,
		"queue_depth": s.queue.depth(),
		"queue_cap":   s.queue.capacity(),
		"inflight":    int(s.inflight.Load()),
		"workers":     s.cfg.Workers,
	})
}

// handleReady is readiness: 200 only when the server can usefully accept
// work — journal replay finished and no drain in progress. Load
// balancers poll this one; /healthz stays green through both conditions
// so a draining instance is not killed mid-drain.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		writeError(w, http.StatusServiceUnavailable,
			apiError(ErrNotReady, errors.New("journal replay in progress")))
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable,
			apiError(ErrNotReady, errors.New("server is draining")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
