// Package store is the durability layer under the job service: the
// paper's §5.2 resilience loop runs reliability analyses as continuous
// campaigns, and a campaign that dies with the process — or whose
// results are recomputed on every identical resubmission — is not
// continuous. Because every analysis in this reproduction is a pure
// function of its validated (Spec, Seed) — seeded Pelgrom mismatch
// trials (Eq. 1) and the deterministic degradation laws of Eqs. 2–4
// (HCI, NBTI, Black's EM) — terminal results are worth persisting and
// deduplicating. The store journals job lifecycle transitions
// (submitted → running → terminal) as append-only NDJSON, snapshots
// each terminal jobspec.Result to its own file, and on open replays the
// journal: terminal jobs are restored verbatim, jobs that were still
// queued are handed back for re-execution, and jobs that died mid-run
// are classified interrupted (their persisted partial results intact).
// On top sits a content-addressed result cache keyed by the canonical
// spec hash, and a journal compactor that keeps disk usage bounded as
// the retention policy evicts old jobs. Opened without a directory, the
// store keeps the same cache and retention semantics in memory.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/jobspec"
	"repro/internal/obs"
)

// Lifecycle states recorded in the journal. Queued and Interrupted only
// ever appear on recovered jobs (a queued job has a submitted record and
// nothing else; an interrupted one has a running record and no terminal
// record — the classification is made at replay, never written).
const (
	StateSubmitted   = "submitted"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCancelled   = "cancelled"
	StateEvicted     = "evicted"
	StateQueued      = "queued"
	StateInterrupted = "interrupted"
	// StateCheckpoint records one completed campaign chunk of a running
	// job. Checkpoints are progress, not lifecycle: a job with running +
	// checkpoint records and no terminal record replays as Interrupted
	// with its Checkpoints attached, so the server can resume the
	// campaign instead of failing it.
	StateCheckpoint = "checkpoint"
)

// commitWindow is how long a checkpoint record may sit in the kernel
// without an fsync of its own: a checkpoint written within commitWindow
// of the journal's last fsync (by record time) skips it, and the next
// fsync — a lifecycle record's, a compaction's, Close's, or the first
// checkpoint's past the window — makes it durable along with everything
// before it. A power loss therefore costs at most the checkpoints of one
// window, whose chunks resume re-runs bit-identically; a process crash
// costs none, since their bytes already left the process.
const commitWindow = 50 * time.Millisecond

// maxRecordBuf caps the journal's reused encoding buffer: after a larger
// record (a submitted record carrying a big inline deck) the buffer is
// dropped rather than held for the store's lifetime.
const maxRecordBuf = 64 << 10

// InterruptedError is the structured cause attached to a job that was
// running when the process died: the journal holds its running record
// but no terminal record, so the run can never report a verdict.
type InterruptedError struct {
	JobID   string
	Started time.Time
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("store: job %s interrupted: the server exited mid-run (started %s); resubmit to re-run",
		e.JobID, e.Started.Format(time.RFC3339))
}

// Options tunes a Store. The zero value is the production configuration.
type Options struct {
	// CompactEvery rewrites the journal after this many evictions
	// (default 64). 1 compacts on every eviction — deterministic for
	// tests, quadratic under sustained eviction.
	CompactEvery int
}

// SubmitMeta is the admission metadata journaled with a submitted
// record: the owning tenant and the scheduling class the job was
// admitted under. Replaying it is what lets a restarted server rebuild
// per-tenant fair-share accounting and put every recovered job back in
// its owner's weighted queue. Zero values (journals written before
// multi-tenancy) mean the default tenant and class.
type SubmitMeta struct {
	Tenant string
	Class  string
	// Node names the fleet node that owns the job (empty outside fleet
	// mode). A surviving node replaying a dead peer's journal uses it to
	// tell adopted work from its own.
	Node string
	// Internal marks a fleet-dispatched shard sub-job. Internal jobs are
	// never adopted during failover: their dispatching owner re-runs the
	// shard through its own fallback path.
	Internal bool
}

// RecoveredJob is one job reconstructed from the journal at Open, in
// submit order. State is one of Done/Failed/Cancelled (terminal, Result
// loaded from its snapshot file when one exists), Queued (submitted but
// never started — re-run it) or Interrupted (started but never finished
// — fail it with an InterruptedError; Result carries any partial
// snapshot that made it to disk before the crash).
type RecoveredJob struct {
	ID        string
	Spec      *jobspec.Spec
	Hash      string
	Tenant    string
	Class     string
	Node      string
	Internal  bool
	State     string
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Error     string
	Result    json.RawMessage
	// Checkpoints holds the job's journaled campaign chunks in ascending
	// chunk order — only ever populated on Interrupted jobs (terminal
	// jobs shed their checkpoints). Handing the payloads to
	// jobspec.Options.Resume continues the campaign from here.
	Checkpoints []CheckpointRec
}

// CheckpointRec is one journaled campaign chunk checkpoint.
type CheckpointRec struct {
	Chunk int
	Data  json.RawMessage
}

// record is one NDJSON journal line. Spec and Hash ride only on
// submitted records; Error and Cached only on terminal ones.
type record struct {
	Time  time.Time     `json:"time"`
	Job   string        `json:"job"`
	State string        `json:"state"`
	Spec  *jobspec.Spec `json:"spec,omitempty"`
	Hash  string        `json:"hash,omitempty"`
	// Tenant and Class ride only on submitted records: the owning tenant
	// and scheduling class the job was admitted under. They are what a
	// restarted server replays to rebuild per-tenant fair-share state.
	Tenant string `json:"tenant,omitempty"`
	Class  string `json:"class,omitempty"`
	// Node and Internal ride only on submitted records: the fleet node
	// that owned the job at admission, and whether it is a fleet-internal
	// shard sub-job (skipped by failover adoption).
	Node     string `json:"node,omitempty"`
	Internal bool   `json:"internal,omitempty"`
	Error    string `json:"error,omitempty"`
	// Cached marks a done record whose result was entered into the
	// spec-hash cache, so replay rebuilds the cache exactly.
	Cached bool `json:"cached,omitempty"`
	// Chunk and Data ride only on checkpoint records: the global chunk
	// index and the chunk's summary payload. omitempty on Chunk is safe —
	// an absent chunk decodes as 0, which is exactly chunk 0.
	Chunk int             `json:"chunk,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// jobRec is the store's in-memory state for one journaled job — exactly
// enough to rewrite the job's records during compaction and to classify
// it at replay.
type jobRec struct {
	id        string
	spec      *jobspec.Spec
	hash      string
	tenant    string
	class     string
	node      string
	internal  bool
	submitted time.Time
	started   time.Time
	state     string // "" until terminal
	errMsg    string
	finished  time.Time
	cached    bool
	// ckpts holds the job's live checkpoint payloads by chunk index. A
	// terminal transition clears them (the result supersedes them); a
	// later chunk record for the same index overwrites the earlier one.
	ckpts map[int]ckptRec
}

// ckptRec is one in-memory checkpoint: the journaled time and payload.
type ckptRec struct {
	t    time.Time
	data json.RawMessage
}

// sortedChunks returns the job's checkpointed chunk indices ascending.
func (r *jobRec) sortedChunks() []int {
	if len(r.ckpts) == 0 {
		return nil
	}
	chunks := make([]int, 0, len(r.ckpts))
	for c := range r.ckpts {
		chunks = append(chunks, c)
	}
	sort.Ints(chunks)
	return chunks
}

func (r *jobRec) terminal() bool { return r.state != "" }

// Store is a journal of job lifecycles plus a result cache, on disk or
// (opened with no directory) in memory. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options
	met  *metrics
	// readOnly marks a ReadJournal replay: no journal handle, no orphan
	// GC, no writes of any kind against the directory.
	readOnly bool

	mu        sync.Mutex
	f         *os.File
	jobs      map[string]*jobRec
	order     []string
	cache     map[string]string // spec hash -> job id with a result snapshot
	evictions int               // since last compaction
	recovered []RecoveredJob
	// mem holds an in-memory store's result snapshots by job id (the
	// caller's bytes, never copied); nil marks a disk store.
	mem map[string][]byte
	// buf and enc encode every journal record into one reused buffer.
	buf bytes.Buffer
	enc *json.Encoder
	// size is the journal's length; synced is its length at the last
	// fsync (at Open, the replayed file), and syncedAt that fsync's record
	// time, which commitWindow is measured from.
	size, synced int64
	syncedAt     time.Time
}

func (s *Store) journalPath() string { return filepath.Join(s.dir, "journal.ndjson") }
func (s *Store) resultsDir() string  { return filepath.Join(s.dir, "results") }
func (s *Store) resultPath(id string) string {
	return filepath.Join(s.resultsDir(), id+".json")
}

// Open opens (creating if necessary) the store rooted at dir, replays
// the journal and leaves the recovered jobs available via Recovered.
// A torn final line — the signature of a crash mid-append — is
// truncated away; garbage accumulated by evictions is compacted. An
// empty dir opens an in-memory store: no journal, nothing recovered,
// nothing written to disk.
func Open(dir string, reg *obs.Registry, opts Options) (*Store, error) {
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = 64
	}
	s := newStore(dir, reg, opts)
	if dir == "" {
		s.mem = make(map[string][]byte)
		return s, nil
	}
	if err := os.MkdirAll(s.resultsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	dirty, err := s.replay()
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.f = f
	if err := s.resetSizeLocked(); err != nil {
		f.Close()
		return nil, err
	}
	if dirty {
		s.mu.Lock()
		err = s.compactLocked()
		s.mu.Unlock()
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	s.buildRecovered()
	s.met.replayed.Add(int64(len(s.recovered)))
	s.met.jobs.Set(float64(len(s.jobs)))
	return s, nil
}

// newStore builds an empty store over dir for Open or ReadJournal.
func newStore(dir string, reg *obs.Registry, opts Options) *Store {
	s := &Store{dir: dir, opts: opts, met: newMetrics(reg),
		jobs: make(map[string]*jobRec), cache: make(map[string]string)}
	s.enc = json.NewEncoder(&s.buf)
	return s
}

// resetSizeLocked takes the open journal's length as both its size and
// its synced length: what a replay read, or what a compaction just
// synced.
func (s *Store) resetSizeLocked() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.size, s.synced = fi.Size(), fi.Size()
	return nil
}

// replay reads the journal into the jobs map. It returns whether the
// on-disk journal carries garbage worth compacting away: evicted jobs,
// a torn tail, or records that never resolved to a usable job.
func (s *Store) replay() (dirty bool, err error) {
	b, err := os.ReadFile(s.journalPath())
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	ensure := func(id string) *jobRec {
		r, ok := s.jobs[id]
		if !ok {
			r = &jobRec{id: id}
			s.jobs[id] = r
			s.order = append(s.order, id)
		}
		return r
	}
	for off := 0; off < len(b); {
		nl := -1
		for i := off; i < len(b); i++ {
			if b[i] == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			// Torn tail: the process died mid-append. Everything before
			// this line is intact; compaction rewrites the file cleanly.
			dirty = true
			break
		}
		var rec record
		if err := json.Unmarshal(b[off:nl], &rec); err != nil {
			// A corrupt interior line ends the trustworthy prefix the
			// same way a torn tail does.
			dirty = true
			break
		}
		off = nl + 1
		switch rec.State {
		case StateSubmitted:
			r := ensure(rec.Job)
			r.spec, r.hash, r.submitted = rec.Spec, rec.Hash, rec.Time
			r.tenant, r.class = rec.Tenant, rec.Class
			r.node, r.internal = rec.Node, rec.Internal
		case StateRunning:
			ensure(rec.Job).started = rec.Time
		case StateCheckpoint:
			r := ensure(rec.Job)
			if r.terminal() {
				// Progress recorded after the verdict is garbage.
				dirty = true
				break
			}
			if r.ckpts == nil {
				r.ckpts = make(map[int]ckptRec)
			}
			r.ckpts[rec.Chunk] = ckptRec{t: rec.Time, data: rec.Data}
		case StateDone, StateFailed, StateCancelled:
			r := ensure(rec.Job)
			r.state, r.errMsg, r.finished, r.cached = rec.State, rec.Error, rec.Time, rec.Cached
			if rec.Cached && r.hash != "" {
				s.cache[r.hash] = r.id
			}
			if len(r.ckpts) > 0 {
				// The terminal result supersedes the campaign's checkpoints;
				// their records are garbage worth compacting away.
				r.ckpts = nil
				dirty = true
			}
		case StateEvicted:
			if r, ok := s.jobs[rec.Job]; ok {
				if r.hash != "" && s.cache[r.hash] == r.id {
					delete(s.cache, r.hash)
				}
				delete(s.jobs, rec.Job)
				dirty = true
			}
		}
	}
	// A job whose submitted record was lost (out-of-order append around a
	// crash) has no spec and cannot be re-run or served: drop it. An id
	// submitted again after its eviction keeps only its latest slot.
	last := make(map[string]int, len(s.order))
	for i, id := range s.order {
		last[id] = i
	}
	live := s.order[:0]
	for i, id := range s.order {
		r, ok := s.jobs[id]
		if !ok || last[id] != i {
			continue // evicted, or superseded by a later submission
		}
		if r.spec == nil {
			delete(s.jobs, id)
			dirty = true
			continue
		}
		live = append(live, id)
	}
	s.order = live
	// Orphan result snapshots (crash between an eviction's journal append
	// and its file delete) are garbage-collected here. A read-only replay
	// (ReadJournal) must not delete anything: the directory belongs to
	// another — possibly dead, possibly restarting — process.
	if s.readOnly {
		return dirty, nil
	}
	if entries, err := os.ReadDir(s.resultsDir()); err == nil {
		for _, e := range entries {
			id := e.Name()
			if len(id) > 5 && id[len(id)-5:] == ".json" {
				id = id[:len(id)-5]
			}
			if _, ok := s.jobs[id]; !ok {
				_ = os.Remove(filepath.Join(s.resultsDir(), e.Name()))
			}
		}
	}
	return dirty, nil
}

// buildRecovered classifies every replayed job.
func (s *Store) buildRecovered() {
	for _, id := range s.order {
		r := s.jobs[id]
		rj := RecoveredJob{
			ID: r.id, Spec: r.spec, Hash: r.hash,
			Tenant: r.tenant, Class: r.class,
			Node: r.node, Internal: r.internal,
			Submitted: r.submitted, Started: r.started, Finished: r.finished,
			Error: r.errMsg,
		}
		switch {
		case r.terminal():
			rj.State = r.state
		case !r.started.IsZero():
			rj.State = StateInterrupted
		default:
			rj.State = StateQueued
		}
		if b, ok := s.readResult(r.id); ok {
			rj.Result = b
		}
		for _, c := range r.sortedChunks() {
			rj.Checkpoints = append(rj.Checkpoints, CheckpointRec{Chunk: c, Data: r.ckpts[c].data})
		}
		s.recovered = append(s.recovered, rj)
	}
}

// Recovered returns the jobs reconstructed at Open, in submit order.
func (s *Store) Recovered() []RecoveredJob { return s.recovered }

// ReadJournal replays the journal rooted at dir without opening it for
// writing, compacting it, or garbage-collecting anything — a pure read.
// This is the fleet failover path: a surviving node inspects a dead
// peer's (shared or handed-off) data dir to adopt its unfinished jobs
// with their checkpoints, while the directory stays byte-identical in
// case the owner comes back. A missing journal returns no jobs and no
// error, exactly like Open on an empty dir.
func ReadJournal(dir string) ([]RecoveredJob, error) {
	s := newStore(dir, nil, Options{})
	s.readOnly = true
	if _, err := s.replay(); err != nil {
		return nil, err
	}
	s.buildRecovered()
	return s.recovered, nil
}

// Jobs returns the number of live (non-evicted) jobs in the journal.
//
// test seam: serve's TestRetentionBoundsTerminalJobs checks through it
// that the journal keeps the same jobs as memory.
func (s *Store) Jobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// appendLocked writes one journal record and, unless mayWait allows
// otherwise, fsyncs the journal. Lifecycle records never wait: their
// fsync also makes every earlier checkpoint durable. A checkpoint
// (mayWait) skips its own fsync while its record time is within
// commitWindow of the last one. An in-memory store has no journal: its
// state lives in the maps alone.
func (s *Store) appendLocked(rec record, mayWait bool) error {
	if s.mem != nil {
		return nil
	}
	s.buf.Reset()
	if err := s.enc.Encode(rec); err != nil {
		return fmt.Errorf("store: encoding journal record: %w", err)
	}
	n, err := s.f.Write(s.buf.Bytes())
	s.size += int64(n)
	if s.buf.Cap() > maxRecordBuf {
		s.buf = bytes.Buffer{}
	}
	if err != nil {
		return fmt.Errorf("store: appending journal: %w", err)
	}
	s.met.appends.Inc()
	if mayWait && rec.Time.Sub(s.syncedAt) < commitWindow {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync journal: %w", err)
	}
	s.synced, s.syncedAt = s.size, rec.Time
	s.met.fsyncs.Inc()
	return nil
}

// JobSubmitted journals a job's admission, including the tenant and
// scheduling class it was admitted under (zero meta = default tenant).
func (s *Store) JobSubmitted(id string, spec *jobspec.Spec, hash string, meta SubmitMeta, t time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; !ok {
		s.order = append(s.order, id)
	}
	r := s.jobs[id]
	if r == nil {
		r = &jobRec{id: id}
		s.jobs[id] = r
	}
	r.spec, r.hash, r.submitted = spec, hash, t
	r.tenant, r.class = meta.Tenant, meta.Class
	r.node, r.internal = meta.Node, meta.Internal
	s.met.jobs.Set(float64(len(s.jobs)))
	return s.appendLocked(record{Time: t, Job: id, State: StateSubmitted, Spec: spec, Hash: hash,
		Tenant: meta.Tenant, Class: meta.Class, Node: meta.Node, Internal: meta.Internal}, false)
}

// JobRunning journals a job's queued → running transition.
func (s *Store) JobRunning(id string, t time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.jobs[id]; ok {
		r.started = t
	}
	return s.appendLocked(record{Time: t, Job: id, State: StateRunning}, false)
}

// JobCheckpoint journals one completed campaign chunk of a running job:
// the unit of resume, which replay hands back on the job's
// RecoveredJob.Checkpoints. The record reaches the kernel before this
// returns, so a process crash loses no checkpoint; it is group-committed
// with the next fsync (see commitWindow), so a power loss loses at most
// the checkpoints written within one commit window.
func (s *Store) JobCheckpoint(id string, chunk int, data []byte, t time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.jobs[id]; ok {
		if r.ckpts == nil {
			r.ckpts = make(map[int]ckptRec)
		}
		r.ckpts[chunk] = ckptRec{t: t, data: json.RawMessage(data)}
	}
	s.met.checkpoints.Inc()
	return s.appendLocked(record{Time: t, Job: id, State: StateCheckpoint, Chunk: chunk, Data: data}, true)
}

// JobTerminal journals a job's terminal transition. The result snapshot
// (nil = none) is written and synced to its own file before the journal
// record, so a crash between the two leaves an interrupted job with its
// partial result intact rather than a terminal record pointing at
// nothing. cacheable enters the result into the spec-hash cache — the
// caller decides, because only it knows whether the result is the full
// deterministic computation (never cache partials or no_cache runs).
func (s *Store) JobTerminal(id, state, errMsg string, result []byte, cacheable bool, t time.Time) error {
	if result != nil {
		if err := s.putResult(id, result); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok {
		r = &jobRec{id: id}
		s.jobs[id] = r
		s.order = append(s.order, id)
	}
	r.state, r.errMsg, r.finished = state, errMsg, t
	// The terminal result supersedes any campaign checkpoints; dropping
	// them here keeps compaction from rewriting dead progress records.
	r.ckpts = nil
	cached := false
	if cacheable && state == StateDone && r.hash != "" && result != nil {
		s.cache[r.hash] = id
		cached = true
	}
	r.cached = cached
	return s.appendLocked(record{Time: t, Job: id, State: state, Error: errMsg, Cached: cached}, false)
}

// CachedResult looks up a terminal result by canonical spec hash and
// returns the owning job's id plus the snapshot bytes, exactly as they
// were persisted (byte-identical across restarts; an in-memory store
// returns the very slice JobTerminal was given, which callers must not
// modify). Every call counts a hit or a miss.
func (s *Store) CachedResult(hash string) (id string, result []byte, ok bool) {
	s.mu.Lock()
	id, ok = s.cache[hash]
	s.mu.Unlock()
	if !ok {
		s.met.cacheMisses.Inc()
		return "", nil, false
	}
	b, ok := s.readResult(id)
	if !ok {
		s.met.cacheMisses.Inc()
		return "", nil, false
	}
	s.met.cacheHits.Inc()
	return id, b, true
}

// Evict removes jobs from the store: one journal tombstone per job (so
// a crash mid-eviction loses nothing), result snapshots deleted, cache
// entries dropped. When CompactEvery evictions have accumulated the
// journal is rewritten without the dead records, which is what keeps
// the disk footprint bounded by the retention policy rather than by the
// server's lifetime traffic. Non-terminal jobs are never evicted, no
// matter what the caller passes: a resumable campaign's checkpoints
// must survive every count- and age-based retention pass until the job
// reaches a verdict.
func (s *Store) Evict(ids []string, t time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		r, ok := s.jobs[id]
		if !ok {
			continue
		}
		if !r.terminal() {
			continue
		}
		if err := s.appendLocked(record{Time: t, Job: id, State: StateEvicted}, false); err != nil {
			return err
		}
		s.dropResultLocked(id)
		if r.hash != "" && s.cache[r.hash] == id {
			delete(s.cache, r.hash)
		}
		delete(s.jobs, id)
		s.evictions++
		s.met.evictions.Inc()
	}
	live := s.order[:0]
	for _, id := range s.order {
		if _, ok := s.jobs[id]; ok {
			live = append(live, id)
		}
	}
	s.order = live
	s.met.jobs.Set(float64(len(s.jobs)))
	if s.mem == nil && s.evictions >= s.opts.CompactEvery {
		return s.compactLocked()
	}
	return nil
}

// compactLocked rewrites the journal from the in-memory state: live
// jobs' records in submit order, no tombstones, no torn tail. The new
// journal is synced and atomically renamed over the old one. An
// in-memory store has no journal to rewrite and never calls it.
func (s *Store) compactLocked() error {
	tmp := s.journalPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, id := range s.order {
		r := s.jobs[id]
		recs := []record{{Time: r.submitted, Job: id, State: StateSubmitted, Spec: r.spec, Hash: r.hash,
			Tenant: r.tenant, Class: r.class, Node: r.node, Internal: r.internal}}
		if !r.started.IsZero() {
			recs = append(recs, record{Time: r.started, Job: id, State: StateRunning})
		}
		if r.terminal() {
			recs = append(recs, record{Time: r.finished, Job: id, State: r.state, Error: r.errMsg, Cached: r.cached})
		} else {
			// A live (resumable) job keeps its campaign checkpoints across
			// compaction — dropping them here would silently cost the re-work
			// a resume was supposed to save.
			for _, c := range r.sortedChunks() {
				cp := r.ckpts[c]
				recs = append(recs, record{Time: cp.t, Job: id, State: StateCheckpoint, Chunk: c, Data: cp.data})
			}
		}
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return fmt.Errorf("store: compact: %w", err)
			}
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp, s.journalPath()); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if s.f != nil {
		_ = s.f.Close()
	}
	nf, err := os.OpenFile(s.journalPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: reopening journal: %w", err)
	}
	s.f = nf
	if err := s.resetSizeLocked(); err != nil {
		return err
	}
	s.evictions = 0
	s.met.compactions.Inc()
	return nil
}

// Close syncs and closes the journal (a no-op in memory). The store is
// unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// putResult persists a terminal result snapshot: held by reference in
// memory, or written to its own file via a synced temp file and an
// atomic rename, so a reader never observes a half-written snapshot.
func (s *Store) putResult(id string, b []byte) error {
	if s.mem != nil {
		s.mu.Lock()
		s.mem[id] = b
		s.mu.Unlock()
		return nil
	}
	path := s.resultPath(id)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// readResult returns a job's result snapshot, if it has one.
func (s *Store) readResult(id string) ([]byte, bool) {
	if s.mem != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		b, ok := s.mem[id]
		return b, ok
	}
	b, err := os.ReadFile(s.resultPath(id))
	return b, err == nil
}

// dropResultLocked deletes a job's result snapshot.
func (s *Store) dropResultLocked(id string) {
	if s.mem != nil {
		delete(s.mem, id)
		return
	}
	_ = os.Remove(s.resultPath(id))
}
