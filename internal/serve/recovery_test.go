package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/store"
)

// blockTrials marks the spec a crash-test executor must hold forever —
// a plain mc spec to the validator, a barrier to the fake engine.
const blockTrials = 777

func mustStore(t *testing.T, dir string, reg *obs.Registry) *store.Store {
	t.Helper()
	st, err := store.Open(dir, reg, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// waitCounter polls the registry until a counter reaches want, so tests
// that depend on a store write (cache hits, crash replay) can
// synchronize on the store's own instruments.
func waitCounter(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, _ := reg.Snapshot().Counter(name)
		if n >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", name, n, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func compactJSON(t *testing.T, b []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatalf("compacting %q: %v", b, err)
	}
	return buf.String()
}

// TestCrashRecovery kills a server mid-campaign — one job done, one
// running, one queued, all journaled — and restarts against the same
// data directory: the done job must be served without recomputation and
// byte-identical, the running Monte-Carlo campaign must be re-enqueued
// and run to a verdict (no checkpoints reached the disk, so it re-runs
// in full — but it no longer manufactures an InterruptedError), and the
// queued job must re-run to the same seeded values a direct execution
// produces.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	reg1 := obs.NewRegistry()
	st1 := mustStore(t, dir, reg1)

	release := make(chan struct{})
	started := make(chan struct{}, 1)
	exec := func(ctx context.Context, spec *jobspec.Spec, opts jobspec.Options) (*jobspec.Result, error) {
		if spec.Analysis == jobspec.KindMC && spec.MC != nil && spec.MC.Trials == blockTrials {
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return &jobspec.Result{Kind: spec.Analysis, Partial: true, Warning: "crash-test job unblocked"}, nil
		}
		return jobspec.ExecuteOpts(ctx, spec, opts)
	}
	s1 := NewServer(Config{QueueDepth: 4, Workers: 1, Store: st1, Execute: exec})
	ts1 := httptest.NewServer(s1)
	// The "crash": ts1/s1 are simply abandoned — no Shutdown, no
	// store.Close — so the journal ends exactly where the process died.
	// The blocked worker is only released at cleanup, long after the
	// second server has taken over the directory.
	t.Cleanup(func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s1.Shutdown(ctx)
		ts1.Close()
	})

	// Job A completes for real before the crash.
	specA := mcSpec(24)
	specA.Seed = 11
	_, a := submit(t, ts1, specA)
	finA := waitTerminal(t, ts1, a.ID)
	if finA.State != StateDone {
		t.Fatalf("job A = %s (error %q)", finA.State, finA.Error)
	}

	// Job B is running (the executor holds it) when the process dies.
	specB := mcSpec(blockTrials)
	specB.Seed = 12
	_, b := submit(t, ts1, specB)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job B never started")
	}

	// Job C is queued behind B on the single worker.
	specC := mcSpec(32)
	specC.Seed = 13
	_, c := submit(t, ts1, specC)
	if v := getJob(t, ts1, c.ID); v.State != StateQueued {
		t.Fatalf("job C = %s before the crash, want queued", v.State)
	}
	// Let the journal reach the exact crash point: A fully terminal
	// (submitted+running+done), B mid-run (submitted+running), C accepted
	// (submitted) — six appends, plus A's chunk checkpoints, which are
	// appends too (without them six is reached before A's terminal
	// record lands, and the restart would see A as interrupted).
	cps, _ := reg1.Snapshot().Counter("store_checkpoints_total")
	waitCounter(t, reg1, "store_journal_appends_total", 6+cps)

	// Restart: a fresh store and server over the same directory.
	reg2 := obs.NewRegistry()
	st2 := mustStore(t, dir, reg2)
	t.Cleanup(func() { st2.Close() })
	s2 := NewServer(Config{QueueDepth: 4, Workers: 1, Store: st2, Registry: reg2})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
		ts2.Close()
	})

	if n, _ := reg2.Snapshot().Counter("store_replayed_jobs_total"); n != 3 {
		t.Errorf("store_replayed_jobs_total = %d, want 3", n)
	}

	// A: served verbatim from its snapshot, not recomputed.
	ra := getJob(t, ts2, a.ID)
	if ra.State != StateDone {
		t.Fatalf("recovered job A = %s (error %q)", ra.State, ra.Error)
	}
	if compactJSON(t, ra.Result) != compactJSON(t, finA.Result) {
		t.Errorf("recovered result A differs from the pre-crash result:\n%s\n%s", ra.Result, finA.Result)
	}
	if n, _ := reg2.Snapshot().Counter("serve_jobs_submitted_total"); n != 0 {
		t.Errorf("restore counted %d submissions; recovered jobs are not resubmissions", n)
	}

	// B: the fix — the interrupted campaign re-enqueues (here with zero
	// journaled checkpoints, so it re-runs in full) and reaches a real
	// verdict instead of an InterruptedError.
	rb := waitTerminal(t, ts2, b.ID)
	if rb.State != StateDone {
		t.Fatalf("recovered job B = %s (error %q), want the campaign re-run to done", rb.State, rb.Error)
	}
	var gotB jobspec.Result
	if err := json.Unmarshal(rb.Result, &gotB); err != nil {
		t.Fatal(err)
	}
	if gotB.MC == nil || gotB.MC.Completed() != blockTrials {
		t.Fatalf("resumed job B = %+v, want %d completed trials", gotB.MC, blockTrials)
	}
	if n, _ := reg2.Snapshot().Counter("serve_jobs_resumed_total"); n != 1 {
		t.Errorf("serve_jobs_resumed_total = %d, want 1", n)
	}

	// C: re-enqueued and re-run; the seeded trials land on the same
	// statistics a direct execution of the identical spec produces.
	rc := waitTerminal(t, ts2, c.ID)
	if rc.State != StateDone {
		t.Fatalf("recovered job C = %s (error %q)", rc.State, rc.Error)
	}
	ref := mcSpec(32)
	ref.Seed = 13
	ref.ApplyDefaults()
	want, err := jobspec.Execute(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	var got jobspec.Result
	if err := json.Unmarshal(rc.Result, &got); err != nil {
		t.Fatal(err)
	}
	if got.Seed != want.Seed {
		t.Errorf("re-run seed = %d, want %d", got.Seed, want.Seed)
	}
	if got.MC == nil || got.MC.Completed() != want.MC.Completed() {
		t.Fatalf("re-run produced %+v, want %d completed trials", got.MC, want.MC.Completed())
	}
	gotStats, err := json.Marshal(got.MC.Stats)
	if err != nil {
		t.Fatal(err)
	}
	wantStats, err := json.Marshal(want.MC.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotStats, wantStats) {
		t.Fatalf("re-run stats %s, direct execution %s: recovery is not deterministic", gotStats, wantStats)
	}
}

// TestCacheHitOnResubmit resubmits a byte-equivalent spec and expects a
// job born terminal from the spec-keyed cache: 200 (not 202), marked
// cached, never started, result byte-identical — across a restart too —
// while a no_cache spec runs fresh.
func TestCacheHitOnResubmit(t *testing.T) {
	dir := t.TempDir()
	spec := mcSpec(24)
	spec.Seed = 7

	reg := obs.NewRegistry()
	st := mustStore(t, dir, reg)
	s, ts := newTestServer(t, Config{QueueDepth: 4, Workers: 1, Store: st, Registry: reg})
	t.Cleanup(func() { st.Close() })

	_, first := submit(t, ts, spec)
	fin := waitTerminal(t, ts, first.ID)
	if fin.State != StateDone || fin.Cached {
		t.Fatalf("first run = %+v", fin)
	}
	// The worker journals the terminal record before the job turns
	// visibly done; the wait for the terminal append (submitted+running+
	// done, plus the chunk checkpoints journaled during the run) only
	// double-checks that the resubmission below finds the cache entry.
	cps, _ := reg.Snapshot().Counter("store_checkpoints_total")
	waitCounter(t, reg, "store_journal_appends_total", 3+cps)

	resubmit := func(ts *httptest.Server, sp *jobspec.Spec) (*http.Response, View) {
		t.Helper()
		body, _ := json.Marshal(sp)
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return resp, v
	}

	resp, hit := resubmit(ts, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache-hit status = %d, want 200 (completed immediately)", resp.StatusCode)
	}
	if hit.State != StateDone || !hit.Cached {
		t.Fatalf("cache-hit view = %+v, want done+cached", hit)
	}
	// Never executed: no started timestamp, terminal at admission.
	if hit.Started != nil || hit.Finished == nil {
		t.Errorf("cache-hit timestamps = started %v finished %v; the job must not run", hit.Started, hit.Finished)
	}
	if compactJSON(t, hit.Result) != compactJSON(t, fin.Result) {
		t.Errorf("cached result differs from the original:\n%s\n%s", hit.Result, fin.Result)
	}
	if n, _ := reg.Snapshot().Counter("store_cache_hits_total"); n != 1 {
		t.Errorf("store_cache_hits_total = %d, want 1", n)
	}

	// An identical spec that opts out runs fresh.
	optOut := mcSpec(24)
	optOut.Seed = 7
	optOut.NoCache = true
	respN, vn := resubmit(ts, optOut)
	if respN.StatusCode != http.StatusAccepted {
		t.Fatalf("no_cache status = %d, want 202", respN.StatusCode)
	}
	if fn := waitTerminal(t, ts, vn.ID); fn.State != StateDone || fn.Cached {
		t.Fatalf("no_cache run = %+v, want a fresh execution", fn)
	}
	if n, _ := reg.Snapshot().Counter("store_cache_hits_total"); n != 1 {
		t.Errorf("no_cache submission consulted the cache (hits = %d)", n)
	}

	// The cache is durable: a restarted server answers the same spec
	// from the replayed journal.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
	st.Close()

	reg2 := obs.NewRegistry()
	st2 := mustStore(t, dir, reg2)
	_, ts2 := newTestServer(t, Config{QueueDepth: 4, Workers: 1, Store: st2, Registry: reg2})
	t.Cleanup(func() { st2.Close() })
	resp2, hit2 := resubmit(ts2, spec)
	if resp2.StatusCode != http.StatusOK || !hit2.Cached {
		t.Fatalf("post-restart resubmit: status %d, view %+v", resp2.StatusCode, hit2)
	}
	if compactJSON(t, hit2.Result) != compactJSON(t, fin.Result) {
		t.Errorf("post-restart cached result differs from the original")
	}
	if n, _ := reg2.Snapshot().Counter("store_cache_hits_total"); n != 1 {
		t.Errorf("store_cache_hits_total after restart = %d, want 1", n)
	}
}

// TestReadYourWritesCache pins the worker's persist-then-publish order:
// the instant a job's state turns terminal, the store already holds its
// result in the spec-hash cache, so a client that saw the job finish
// and resubmits the spec gets a cache hit. The test watches the job's
// change channel in-process: polling over HTTP would hide the window
// behind request latency.
func TestReadYourWritesCache(t *testing.T) {
	for _, mode := range []string{"disk", "memory"} {
		t.Run(mode, func(t *testing.T) {
			release := make(chan struct{})
			cfg := Config{QueueDepth: 4, Workers: 1,
				Execute: func(ctx context.Context, spec *jobspec.Spec, _ jobspec.Options) (*jobspec.Result, error) {
					select {
					case <-release:
						return &jobspec.Result{Kind: spec.Analysis, Seed: spec.Seed}, nil
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}}
			if mode == "disk" {
				st := mustStore(t, t.TempDir(), nil)
				t.Cleanup(func() { st.Close() })
				cfg.Store = st
			}
			s, ts := newTestServer(t, cfg)
			for seed := uint64(1); seed <= 20; seed++ {
				spec := mcSpec(8)
				spec.Seed = seed
				resp, v := submit(t, ts, spec)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("seed %d: submit status %d, want 202", seed, resp.StatusCode)
				}
				j := s.job(v.ID)
				release <- struct{}{}
				for {
					_, terminal, wait := j.eventsSince(0, 1)
					if terminal {
						break
					}
					select {
					case <-wait:
					case <-time.After(10 * time.Second):
						t.Fatalf("job %s never turned terminal", v.ID)
					}
				}
				if _, _, ok := s.cfg.Store.CachedResult(j.specHash); !ok {
					t.Fatalf("job %s is visibly terminal but its result is not in the cache yet", v.ID)
				}
			}
		})
	}
}

// TestStorelessKeylessServer pins the two wire decisions of a server
// with neither a Store nor Tenants, which runs on an in-memory store and
// one open default tenant: an identical resubmission is a cached 200
// with a byte-identical result until retention evicts the computing
// job, and listing is scoped to the default tenant like a keyed one —
// every job with no filter or ?tenant=default, 403 for any other name.
func TestStorelessKeylessServer(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8, Workers: 1, MaxTerminalJobs: 2})
	spec := mcSpec(24)
	spec.Seed = 5
	_, first := submit(t, ts, spec)
	fin := waitTerminal(t, ts, first.ID)
	if fin.State != StateDone || fin.Tenant != DefaultTenant {
		t.Fatalf("first run = %s owned by %q, want done by %q", fin.State, fin.Tenant, DefaultTenant)
	}
	resp, _ := submit(t, ts, spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("identical resubmission: status %d, want a cached 200", resp.StatusCode)
	}
	var page struct {
		Jobs []View `json:"jobs"`
	}
	doAs(t, ts, "", "GET", "/v1/jobs?state=done", nil, &page)
	if len(page.Jobs) != 2 {
		t.Fatalf("listed %d done jobs, want the run and its cache hit", len(page.Jobs))
	}
	hit := getJob(t, ts, page.Jobs[1].ID)
	if !hit.Cached || !bytes.Equal(hit.Result, fin.Result) {
		t.Fatalf("cache hit = cached %v, result\n%s\nwant the first run's\n%s", hit.Cached, hit.Result, fin.Result)
	}

	// Every listing form a keyless client may use sees all jobs; naming
	// another tenant is refused exactly as with a keyfile.
	for _, q := range []string{"", "?tenant=" + DefaultTenant} {
		page.Jobs = nil
		if r := doAs(t, ts, "", "GET", "/v1/jobs"+q, nil, &page); r.StatusCode != http.StatusOK || len(page.Jobs) != 2 {
			t.Errorf("GET /v1/jobs%s: status %d with %d jobs, want 200 with 2", q, r.StatusCode, len(page.Jobs))
		}
	}
	var e ErrorBody
	if r := doAs(t, ts, "", "GET", "/v1/jobs?tenant=x", nil, &e); r.StatusCode != http.StatusForbidden || e.Code != ErrForbidden {
		t.Errorf("GET /v1/jobs?tenant=x: status %d code %q, want 403 %s", r.StatusCode, e.Code, ErrForbidden)
	}

	// Two more runs push the computing job past MaxTerminalJobs; its
	// cache entry goes with it, so the same spec runs again.
	for seed := uint64(6); seed <= 7; seed++ {
		other := mcSpec(24)
		other.Seed = seed
		_, v := submit(t, ts, other)
		waitTerminal(t, ts, v.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.job(first.ID) != nil {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never evicted", first.ID)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if resp, _ := submit(t, ts, spec); resp.StatusCode != http.StatusAccepted {
		t.Errorf("resubmission after eviction: status %d, want 202 (a cache miss)", resp.StatusCode)
	}
}

// TestRetentionBoundsTerminalJobs drives more terminal jobs than the
// retention cap and expects the oldest evicted — from the in-memory
// table, the list view, and (when a store is configured) the journal —
// while the newest stay serveable.
func TestRetentionBoundsTerminalJobs(t *testing.T) {
	run := func(t *testing.T, dir string) {
		reg := obs.NewRegistry()
		cfg := Config{QueueDepth: 8, Workers: 1, Registry: reg, MaxTerminalJobs: 2}
		var st *store.Store
		if dir != "" {
			st = mustStore(t, dir, reg)
			t.Cleanup(func() { st.Close() })
			cfg.Store = st
		}
		_, ts := newTestServer(t, cfg)

		var ids []string
		for i := 0; i < 5; i++ {
			// Distinct seeds keep the spec hashes distinct, so every
			// submission is a real run, never a cache hit.
			_, v := submit(t, ts, &jobspec.Spec{
				Analysis: jobspec.KindOP, Netlist: inverterDeck, Seed: uint64(i + 1),
			})
			if v.ID == "" {
				t.Fatalf("submit %d not accepted", i)
			}
			waitTerminal(t, ts, v.ID)
			ids = append(ids, v.ID)
		}

		// Retention runs in the worker goroutine after the terminal state
		// is already visible, so the list converges to the bound rather
		// than hitting it atomically with the final job's completion.
		var list struct {
			Jobs []View `json:"jobs"`
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(ts.URL + "/v1/jobs")
			if err != nil {
				t.Fatal(err)
			}
			list.Jobs = nil
			if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if len(list.Jobs) == 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("list holds %d jobs, want the 2 retained: %+v", len(list.Jobs), list.Jobs)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if list.Jobs[0].ID != ids[3] || list.Jobs[1].ID != ids[4] {
			t.Errorf("retained %s/%s, want the newest %s/%s",
				list.Jobs[0].ID, list.Jobs[1].ID, ids[3], ids[4])
		}
		// Evicted jobs are gone, not dangling: 404, never a nil panic.
		gone, err := http.Get(ts.URL + "/v1/jobs/" + ids[0])
		if err != nil {
			t.Fatal(err)
		}
		gone.Body.Close()
		if gone.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job GET = %d, want 404", gone.StatusCode)
		}
		if n, _ := reg.Snapshot().Counter("serve_jobs_evicted_total"); n != 3 {
			t.Errorf("serve_jobs_evicted_total = %d, want 3", n)
		}
		if st != nil {
			if n := st.Jobs(); n != 2 {
				t.Errorf("journal retains %d jobs, want the same 2 as memory", n)
			}
			if n, _ := reg.Snapshot().Counter("store_evictions_total"); n != 3 {
				t.Errorf("store_evictions_total = %d, want 3", n)
			}
		}
	}
	t.Run("memory-only", func(t *testing.T) { run(t, "") })
	t.Run("with-store", func(t *testing.T) { run(t, t.TempDir()) })
}

// TestRetentionByAge evicts terminal jobs past MaxTerminalAge on the
// next admission, regardless of count.
func TestRetentionByAge(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{
		QueueDepth: 4, Workers: 1, Registry: reg,
		MaxTerminalJobs: -1, // unbounded count: only age evicts
		MaxTerminalAge:  time.Nanosecond,
	})
	_, a := submit(t, ts, &jobspec.Spec{Analysis: jobspec.KindOP, Netlist: inverterDeck})
	// With a nanosecond bound the retention pass at the job's own
	// completion already ages it out, so "terminal" is observed as the
	// transition from existing to 404 — never as a dangling entry.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + a.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never aged out (last status %d)", a.ID, resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n, _ := reg.Snapshot().Counter("serve_jobs_evicted_total"); n < 1 {
		t.Error("no eviction counted for the aged-out job")
	}
}

// TestEventsFromPastEndRejected pins the ?from= boundary on a terminal
// job: from == len(events) is the legitimate "seen everything" resume
// (empty stream, immediate EOF), anything beyond is a 400.
func TestEventsFromPastEndRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 2, Workers: 1})
	_, v := submit(t, ts, &jobspec.Spec{Analysis: jobspec.KindOP, Netlist: inverterDeck})
	fin := waitTerminal(t, ts, v.ID)
	if fin.Events == 0 {
		t.Fatal("terminal job has an empty event log")
	}

	at, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events?from=" + strconv.Itoa(fin.Events))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(at.Body)
	at.Body.Close()
	if at.StatusCode != http.StatusOK || len(body) != 0 {
		t.Errorf("from == len(events): status %d body %q, want an empty 200 stream", at.StatusCode, body)
	}

	past, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events?from=" + strconv.Itoa(fin.Events+1))
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(past.Body)
	past.Body.Close()
	if past.StatusCode != http.StatusBadRequest {
		t.Errorf("from past the end: status %d, want 400", past.StatusCode)
	}
	if !strings.Contains(string(pbody), "beyond the end") {
		t.Errorf("from past the end: body %q does not name the bound", pbody)
	}
}

// TestRetryAfterDerivation pins the pure load model: cold servers say
// "come right back", the estimate scales with backlog per worker, and
// the clamp caps pathological backlogs.
func TestRetryAfterDerivation(t *testing.T) {
	cases := []struct {
		depth, workers int
		avg            float64
		want           int
	}{
		{0, 4, 0, 1},      // cold start: no duration data yet
		{0, 1, 0.2, 1},    // sub-second jobs round up to the minimum
		{9, 1, 2, 20},     // (9+1)*2/1
		{9, 5, 2, 4},      // same backlog, five workers
		{10, 0, 3, 33},    // workers clamps to 1
		{5000, 1, 2, 300}, // pathological backlog hits the cap
	}
	for _, tc := range cases {
		if got := retryAfter(tc.depth, tc.workers, tc.avg); got != tc.want {
			t.Errorf("retryAfter(%d, %d, %g) = %d, want %d", tc.depth, tc.workers, tc.avg, got, tc.want)
		}
	}
}
