package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobspec"
	"repro/internal/serve"
)

// Span names. A job's tree is client.job → serve.admit (or
// serve.cached_answer), serve.queue_wait, jobspec.execute, serve.deliver;
// an execute's children are store.checkpoint, serve.shard and
// jobspec.subjob.<node> spans, and nested executes (sub-jobs, shards run
// on a peer) hang under the span that caused them.
const (
	spanJob     = "client.job"
	spanAdmit   = "serve.admit"
	spanCached  = "serve.cached_answer"
	spanQueue   = "serve.queue_wait"
	spanExecute = "jobspec.execute"
	spanDeliver = "serve.deliver"
	spanCkpt    = "store.checkpoint"
	spanShard   = "serve.shard"
	spanSubjob  = "jobspec.subjob."
	wearoutNode = "wearout"
	wearoutCkpt = `{"name":"wearout"`
)

// span is one timed interval at a layer boundary. Spans of one job share
// Trace; Parent is the span that caused this one (0 for a job's root).
type span struct {
	ID     int64
	Parent int64
	Trace  string
	Name   string
	Start  time.Time
	End    time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// ref names a span that is still open: its ID and its job's trace.
type ref struct {
	id    int64
	trace string
}

// parentKey carries the open span a nested execute belongs under through
// the context serve hands the RunSub hook's executor.
type parentKey struct{}

// shardKey identifies a dispatched shard by its campaign seed and the
// first trial of its range — all a peer's executor sees of it.
type shardKey struct {
	seed uint64
	from int
}

// tracer records spans in memory from outside the layers: around the
// client's requests, and around the executor and the hooks the server
// passes it (checkpoint, shard dispatch, sub-job). Executes are matched
// to their job by spec seed, which is unique per task within a run.
type tracer struct {
	ids atomic.Int64

	mu     sync.Mutex
	spans  []span
	roots  map[uint64]ref   // spec seed → open client.job span
	shards map[shardKey]ref // open serve.shard spans awaiting a peer's execute
	execs  map[int64]span   // client.job id → its top-level execute
	// subjobs counts RunSub calls, subjobsCached those the result cache
	// answered.
	subjobs, subjobsCached int
}

func newTracer() *tracer {
	t := &tracer{}
	t.reset()
	return t
}

// reset drops everything recorded so far (the warm-up job's spans).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = nil
	t.roots = map[uint64]ref{}
	t.shards = map[shardKey]ref{}
	t.execs = map[int64]span{}
	t.subjobs, t.subjobsCached = 0, 0
}

func (t *tracer) open(trace string) ref { return ref{id: t.ids.Add(1), trace: trace} }

func (t *tracer) add(r ref, parent int64, name string, start, end time.Time) span {
	s := span{ID: r.id, Parent: parent, Trace: r.trace, Name: name, Start: start, End: end}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// openJob opens a job's root span before its spec is submitted.
func (t *tracer) openJob(seed uint64, trace string) ref {
	r := t.open(trace)
	t.mu.Lock()
	t.roots[seed] = r
	t.mu.Unlock()
	return r
}

// closeJob records a finished submission: the root span from send to
// the terminal answer, and the phases between the client's observations
// and the executor's — admission (or the cached answer), queue wait and
// delivery.
func (t *tracer) closeJob(seed uint64, root ref, rec record) {
	t.mu.Lock()
	delete(t.roots, seed)
	exec, ran := t.execs[root.id]
	delete(t.execs, root.id)
	t.mu.Unlock()
	admit := spanAdmit
	if rec.cached {
		admit = spanCached
	}
	t.add(t.open(root.trace), root.id, admit, rec.sent, rec.answered)
	if ran && !rec.cached {
		// A worker can start the job before the client has read its 202;
		// the queue wait is then empty.
		qStart := rec.answered
		if exec.Start.Before(qStart) {
			qStart = exec.Start
		}
		t.add(t.open(root.trace), root.id, spanQueue, qStart, exec.Start)
		t.add(t.open(root.trace), root.id, spanDeliver, exec.End, rec.terminal)
	}
	t.add(root, 0, spanJob, rec.sent, rec.terminal)
}

// parentOf resolves the span an execute belongs under: the sub-job span
// in its context, the shard span a peer's shard sub-job was dispatched
// from, or the client.job span of its seed (top reports that last case).
func (t *tracer) parentOf(ctx context.Context, spec *jobspec.Spec) (r ref, top bool) {
	if r, ok := ctx.Value(parentKey{}).(ref); ok {
		return r, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if spec.MC != nil && spec.MC.Range != nil {
		return t.shards[shardKey{spec.Seed, spec.MC.Range.From}], false
	}
	r, top = t.roots[spec.Seed]
	return r, top
}

// wrap returns the traced executor: next, with a jobspec.execute span
// around each call and spans around the checkpoint, shard-dispatch and
// sub-job hooks serve passes in.
func (t *tracer) wrap(next serve.ExecFunc) serve.ExecFunc {
	return func(ctx context.Context, spec *jobspec.Spec, opts jobspec.Options) (*jobspec.Result, error) {
		start := time.Now()
		parent, top := t.parentOf(ctx, spec)
		self := t.open(parent.trace)
		res, err := next(ctx, spec, t.hook(self, start, opts))
		s := t.add(self, parent.id, spanExecute, start, time.Now())
		if top {
			t.mu.Lock()
			t.execs[parent.id] = s
			t.mu.Unlock()
		}
		return res, err
	}
}

func (t *tracer) hook(self ref, start time.Time, opts jobspec.Options) jobspec.Options {
	if checkpoint := opts.OnCheckpoint; checkpoint != nil {
		opts.OnCheckpoint = func(cp jobspec.Checkpoint) {
			s := time.Now()
			checkpoint(cp)
			t.add(t.open(self.trace), self.id, spanCkpt, s, time.Now())
			if cp.Stage == "subjob" && bytes.HasPrefix(cp.Data, []byte(wearoutCkpt)) {
				// The wear-out roll-up runs inline, not through RunSub. It has
				// no dependencies, so it starts with the campaign and ends when
				// its checkpoint is journaled.
				t.add(t.open(self.trace), self.id, spanSubjob+wearoutNode, start, s)
			}
		}
	}
	if runShard := opts.RunShard; runShard != nil {
		opts.RunShard = func(ctx context.Context, shard int, sub *jobspec.Spec) (*jobspec.Result, error) {
			r := t.open(self.trace)
			key := shardKey{sub.Seed, sub.MC.Range.From}
			t.mu.Lock()
			t.shards[key] = r
			t.mu.Unlock()
			s := time.Now()
			res, err := runShard(ctx, shard, sub)
			t.add(r, self.id, spanShard, s, time.Now())
			t.mu.Lock()
			delete(t.shards, key)
			t.mu.Unlock()
			return res, err
		}
	}
	if runSub := opts.RunSub; runSub != nil {
		opts.RunSub = func(ctx context.Context, name string, sub *jobspec.Spec) (*jobspec.Result, bool, error) {
			r := t.open(self.trace)
			s := time.Now()
			res, cached, err := runSub(context.WithValue(ctx, parentKey{}, r), name, sub)
			t.add(r, self.id, spanSubjob+name, s, time.Now())
			t.mu.Lock()
			t.subjobs++
			if cached {
				t.subjobsCached++
			}
			t.mu.Unlock()
			return res, cached, err
		}
	}
	return opts
}

// snapshot returns the recorded spans and the share of sub-jobs the
// result cache answered.
func (t *tracer) snapshot() ([]span, float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), div(float64(t.subjobsCached), float64(t.subjobs))
}

// writeSpans writes spans as JSON lines, times in microseconds since the
// first span started, sorted by start.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	var epoch time.Time
	if len(sorted) > 0 {
		epoch = sorted[0].Start
	}
	for _, s := range sorted {
		line := struct {
			ID      int64   `json:"id"`
			Parent  int64   `json:"parent,omitempty"`
			Trace   string  `json:"trace"`
			Name    string  `json:"name"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
		}{s.ID, s.Parent, s.Trace, s.Name,
			float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3, float64(s.End.Sub(epoch).Nanoseconds()) / 1e3}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
