package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/jobspec"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/variation"
)

// twoTenants is the canonical 3:1 pair used across these tests.
func twoTenants() []TenantConfig {
	return []TenantConfig{
		{ID: "acme", Key: "k-acme", Weight: 3},
		{ID: "beta", Key: "k-beta", Weight: 1},
	}
}

// doAs performs an authenticated request and decodes the JSON body into
// out (when non-nil and the status has a body worth decoding).
func doAs(t *testing.T, ts *httptest.Server, key, method, path string, body []byte, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding body: %v", method, path, err)
		}
	}
	return resp
}

func submitAs(t *testing.T, ts *httptest.Server, key string, spec *jobspec.Spec) (*http.Response, View) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var v View
	resp := doAs(t, ts, key, "POST", "/v1/jobs", body, &v)
	return resp, v
}

// TestTenantAuth: with a keyfile every /v1 route demands a listed key,
// and a valid key cannot see another tenant's jobs.
func TestTenantAuth(t *testing.T) {
	release := make(chan struct{})
	close(release)
	started := make(chan string, 64)
	_, ts := newTestServer(t, Config{
		Workers: 1, Tenants: twoTenants(),
		Execute: blockingExec(started, release),
	})

	// No key and unknown key: 401 with the envelope code.
	for _, key := range []string{"", "k-wrong"} {
		var e ErrorBody
		resp := doAs(t, ts, key, "GET", "/v1/jobs", nil, &e)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("key %q: status %d, want 401", key, resp.StatusCode)
		}
		if e.Code != ErrUnauthorized {
			t.Fatalf("key %q: code %q, want %q", key, e.Code, ErrUnauthorized)
		}
	}

	// A valid key submits; the job is stamped with its tenant.
	resp, v := submitAs(t, ts, "k-acme", mcSpec(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	if v.Tenant != "acme" || v.Class != ClassInteractive {
		t.Fatalf("view tenant/class = %q/%q, want acme/interactive", v.Tenant, v.Class)
	}
	<-started

	// The other tenant cannot read, cancel or stream it — 404, not 403,
	// so job ids cannot be probed across tenants.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/jobs/" + v.ID},
		{"DELETE", "/v1/jobs/" + v.ID},
		{"GET", "/v1/jobs/" + v.ID + "/events"},
	} {
		var e ErrorBody
		resp := doAs(t, ts, "k-beta", probe.method, probe.path, nil, &e)
		if resp.StatusCode != http.StatusNotFound || e.Code != ErrNotFound {
			t.Fatalf("%s %s as beta: status %d code %q, want 404 %q",
				probe.method, probe.path, resp.StatusCode, e.Code, ErrNotFound)
		}
	}
	// And its listing does not include it.
	var list struct{ Jobs []View }
	doAs(t, ts, "k-beta", "GET", "/v1/jobs", nil, &list)
	if len(list.Jobs) != 0 {
		t.Fatalf("beta sees %d foreign jobs", len(list.Jobs))
	}
	// Naming a foreign tenant in the filter is refused outright.
	var e ErrorBody
	resp = doAs(t, ts, "k-beta", "GET", "/v1/jobs?tenant=acme", nil, &e)
	if resp.StatusCode != http.StatusForbidden || e.Code != ErrForbidden {
		t.Fatalf("cross-tenant filter: status %d code %q, want 403 %q", resp.StatusCode, e.Code, ErrForbidden)
	}
	// An invalid priority class is a structured 400.
	body, _ := json.Marshal(mcSpec(2))
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer k-acme")
	req.Header.Set("X-Priority", "urgent")
	raw, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Body.Close()
	var e2 ErrorBody
	if err := json.NewDecoder(raw.Body).Decode(&e2); err != nil {
		t.Fatal(err)
	}
	if raw.StatusCode != http.StatusBadRequest || e2.Code != ErrBadArgument {
		t.Fatalf("bad class: status %d code %q, want 400 %q", raw.StatusCode, e2.Code, ErrBadArgument)
	}
}

// TestFairShareWeightedTrials is the acceptance scenario: two saturating
// tenants with weights 3:1 complete trials within 10% of 3:1, and
// neither starves. The executor is gated on a token channel, so the
// measurement point — exactly 200 finished jobs with both backlogs
// non-empty — is deterministic.
func TestFairShareWeightedTrials(t *testing.T) {
	step := make(chan struct{})
	exec := func(ctx context.Context, spec *jobspec.Spec, _ jobspec.Options) (*jobspec.Result, error) {
		select {
		case <-step:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &jobspec.Result{Kind: spec.Analysis, MC: &jobspec.MCOutcome{
			Node: "out", Requested: 5, Stats: &variation.MCStats{Moments: mathx.Moments{Count: 5}},
		}}, nil
	}
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 512, Registry: reg, Execute: exec, Tenants: twoTenants(),
	})
	defer close(step)

	// Saturate both tenants: acme offers 3× beta's volume and far more
	// than its share of the measured window.
	for i := 0; i < 300; i++ {
		spec := mcSpec(5)
		spec.Seed = uint64(i + 1)
		if resp, _ := submitAs(t, ts, "k-acme", spec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("acme submit %d: status %d", i, resp.StatusCode)
		}
	}
	for i := 0; i < 100; i++ {
		spec := mcSpec(5)
		spec.Seed = uint64(1000 + i)
		if resp, _ := submitAs(t, ts, "k-beta", spec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("beta submit %d: status %d", i, resp.StatusCode)
		}
	}
	// Let exactly 200 jobs finish (1000 trials), then measure.
	for i := 0; i < 200; i++ {
		step <- struct{}{}
	}
	acme := s.met.tenantTrials("acme")
	beta := s.met.tenantTrials("beta")
	deadline := time.Now().Add(10 * time.Second)
	for acme.Value()+beta.Value() < 1000 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d trials finished after 10s", acme.Value()+beta.Value())
		}
		time.Sleep(time.Millisecond)
	}
	a, b := float64(acme.Value()), float64(beta.Value())
	if b == 0 || a == 0 {
		t.Fatalf("a tenant starved: acme %v beta %v trials", a, b)
	}
	if ratio := a / b; ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("completed-trial share %0.0f:%0.0f (ratio %.2f), want within 10%% of 3:1", a, b, ratio)
	}
	// Both tenants still had backlog at the measurement point, so the
	// share was measured under saturation, not offered-load imbalance.
	if s.queue.tenantDepth("acme") == 0 || s.queue.tenantDepth("beta") == 0 {
		t.Fatalf("backlog drained during measurement: acme %d beta %d queued",
			s.queue.tenantDepth("acme"), s.queue.tenantDepth("beta"))
	}
}

// TestTenantQueueQuota429: a tenant over its own max_queued gets 429
// tenant_queue_full with a Retry-After, while other tenants — and global
// capacity — are unaffected.
func TestTenantQueueQuota429(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	tenants := []TenantConfig{
		{ID: "acme", Key: "k-acme", MaxQueued: 2},
		{ID: "beta", Key: "k-beta"},
	}
	_, ts := newTestServer(t, Config{
		Workers: 1, QueueDepth: 64, Tenants: tenants,
		Execute: blockingExec(started, release),
	})
	defer close(release)

	// First job occupies the worker (not the queue)...
	if resp, _ := submitAs(t, ts, "k-acme", mcSpec(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("plug submit: status %d", resp.StatusCode)
	}
	<-started
	// ...two more fill acme's quota...
	for i := 0; i < 2; i++ {
		spec := mcSpec(2)
		spec.Seed = uint64(10 + i)
		if resp, _ := submitAs(t, ts, "k-acme", spec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submit %d: status %d", i, resp.StatusCode)
		}
	}
	// ...and the third is the tenant's own 429, not a global 503.
	spec := mcSpec(2)
	spec.Seed = 99
	body, _ := json.Marshal(spec)
	var e ErrorBody
	resp := doAs(t, ts, "k-acme", "POST", "/v1/jobs", body, &e)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota: status %d, want 429", resp.StatusCode)
	}
	if e.Code != ErrTenantQueueFull {
		t.Fatalf("over-quota code %q, want %q", e.Code, ErrTenantQueueFull)
	}
	if e.RetryAfterS < 1 {
		t.Fatalf("over-quota retry_after_s = %d, want >= 1", e.RetryAfterS)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("over-quota response has no Retry-After header")
	}
	// beta is untouched by acme's quota.
	spec = mcSpec(2)
	spec.Seed = 77
	if resp, _ := submitAs(t, ts, "k-beta", spec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("beta submit during acme quota exhaustion: status %d", resp.StatusCode)
	}
}

// TestTrialRateLimit429: the token bucket debits each submission by its
// spec's trial cost and answers 429 rate_limited with the refill time
// once empty.
func TestTrialRateLimit429(t *testing.T) {
	release := make(chan struct{})
	close(release)
	started := make(chan string, 64)
	tenants := []TenantConfig{{ID: "acme", Key: "k-acme", TrialRate: 1, TrialBurst: 10}}
	_, ts := newTestServer(t, Config{
		Workers: 1, Tenants: tenants, Execute: blockingExec(started, release),
	})

	// 8 trials fit the burst of 10...
	if resp, _ := submitAs(t, ts, "k-acme", mcSpec(8)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	// ...the next 8 do not (2 tokens left, refill 1/s).
	spec := mcSpec(8)
	spec.Seed = 2
	body, _ := json.Marshal(spec)
	var e ErrorBody
	resp := doAs(t, ts, "k-acme", "POST", "/v1/jobs", body, &e)
	if resp.StatusCode != http.StatusTooManyRequests || e.Code != ErrRateLimited {
		t.Fatalf("rate-limited: status %d code %q, want 429 %q", resp.StatusCode, e.Code, ErrRateLimited)
	}
	if e.RetryAfterS < 1 {
		t.Fatalf("rate-limited retry_after_s = %d, want >= 1 (bucket refill)", e.RetryAfterS)
	}
}

func batchOf(specs ...*jobspec.Spec) []byte {
	b, _ := json.Marshal(jobspec.Batch{Specs: specs})
	return b
}

// TestBatchDedupAndCache: identical sweep points inside one batch share
// one job, and points whose result is already cached are answered
// without a queue slot — both observable through the serve_batch_*
// metrics.
func TestBatchDedupAndCache(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), reg, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	exec := func(ctx context.Context, spec *jobspec.Spec, _ jobspec.Options) (*jobspec.Result, error) {
		return &jobspec.Result{Kind: spec.Analysis, MC: &jobspec.MCOutcome{
			Node: "out", Requested: spec.MC.Trials, Stats: &variation.MCStats{Moments: mathx.Moments{Count: 1}},
		}}, nil
	}
	s, ts := newTestServer(t, Config{Workers: 2, Registry: reg, Store: st, Execute: exec})

	s1, s2 := mcSpec(4), mcSpec(4)
	s2.Seed = 2
	s1dup := mcSpec(4) // identical to s1 after defaulting

	var bv batchView
	resp := doAs(t, ts, "", "POST", "/v1/batches", batchOf(s1, s1dup, s2), &bv)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: status %d, want 202", resp.StatusCode)
	}
	if len(bv.Jobs) != 3 {
		t.Fatalf("batch reports %d jobs, want 3", len(bv.Jobs))
	}
	if bv.Jobs[1].JobID != bv.Jobs[0].JobID {
		t.Fatalf("duplicate spec got its own job %s (owner %s)", bv.Jobs[1].JobID, bv.Jobs[0].JobID)
	}
	if bv.Jobs[1].DuplicateOf == nil || *bv.Jobs[1].DuplicateOf != 0 {
		t.Fatalf("duplicate_of = %v, want 0", bv.Jobs[1].DuplicateOf)
	}
	if bv.Jobs[2].JobID == bv.Jobs[0].JobID {
		t.Fatal("distinct specs share a job")
	}
	if got := s.met.batchDeduped.Value(); got != 1 {
		t.Fatalf("serve_batch_specs_deduped_total = %d, want 1", got)
	}
	waitTerminal(t, ts, bv.Jobs[0].JobID)
	waitTerminal(t, ts, bv.Jobs[2].JobID)

	// Resubmitting a sweep overlapping the finished points hits the
	// result cache: the overlapping job is born done (cached), only the
	// new point queues.
	s3 := mcSpec(4)
	s3.Seed = 3
	var bv2 batchView
	resp = doAs(t, ts, "", "POST", "/v1/batches", batchOf(s1, s3), &bv2)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second batch: status %d, want 202", resp.StatusCode)
	}
	if !bv2.Jobs[0].Cached || bv2.Jobs[0].State != StateDone {
		t.Fatalf("overlapping point: cached=%v state=%s, want cache hit born done",
			bv2.Jobs[0].Cached, bv2.Jobs[0].State)
	}
	if bv2.Jobs[1].Cached {
		t.Fatal("fresh point reported as cached")
	}
	if got := s.met.batchCached.Value(); got != 1 {
		t.Fatalf("serve_batch_specs_cached_total = %d, want 1", got)
	}
	if got := s.met.batches.Value(); got != 2 {
		t.Fatalf("serve_batches_submitted_total = %d, want 2", got)
	}

	// The batch endpoint aggregates live job states.
	waitTerminal(t, ts, bv2.Jobs[1].JobID)
	var bg batchView
	resp = doAs(t, ts, "", "GET", "/v1/batches/"+bv2.ID, nil, &bg)
	if resp.StatusCode != http.StatusOK || !bg.Terminal || bg.States["done"] != 2 {
		t.Fatalf("batch get: status %d terminal %v states %v, want 200/terminal/2 done",
			resp.StatusCode, bg.Terminal, bg.States)
	}
	// Unknown batch id: structured 404.
	var e ErrorBody
	resp = doAs(t, ts, "", "GET", "/v1/batches/batch-999999", nil, &e)
	if resp.StatusCode != http.StatusNotFound || e.Code != ErrNotFound {
		t.Fatalf("missing batch: status %d code %q", resp.StatusCode, e.Code)
	}
}

// TestBatchAtomicQuota: a batch that cannot fully fit the tenant's quota
// admits nothing.
func TestBatchAtomicQuota(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	tenants := []TenantConfig{{ID: "acme", Key: "k-acme", MaxQueued: 2}}
	_, ts := newTestServer(t, Config{
		Workers: 1, Tenants: tenants, Execute: blockingExec(started, release),
	})
	defer close(release)

	// Occupy the worker so batch jobs stay queued.
	if resp, _ := submitAs(t, ts, "k-acme", mcSpec(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("plug submit: status %d", resp.StatusCode)
	}
	<-started

	sp := func(seed uint64) *jobspec.Spec {
		s := mcSpec(2)
		s.Seed = seed
		return s
	}
	var e ErrorBody
	resp := doAs(t, ts, "k-acme", "POST", "/v1/batches", batchOf(sp(1), sp(2), sp(3)), &e)
	if resp.StatusCode != http.StatusTooManyRequests || e.Code != ErrTenantQueueFull {
		t.Fatalf("oversized batch: status %d code %q, want 429 %q", resp.StatusCode, e.Code, ErrTenantQueueFull)
	}
	// Nothing from the rejected batch is visible.
	var list struct{ Jobs []View }
	doAs(t, ts, "k-acme", "GET", "/v1/jobs", nil, &list)
	if len(list.Jobs) != 1 {
		t.Fatalf("rejected batch leaked jobs: %d listed, want 1 (the plug)", len(list.Jobs))
	}
	// The same sweep split to fit the quota is admitted.
	var bv batchView
	resp = doAs(t, ts, "k-acme", "POST", "/v1/batches", batchOf(sp(1), sp(2)), &bv)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fitting batch: status %d, want 202", resp.StatusCode)
	}
	if bv.Jobs[0].State != StateQueued || bv.Tenant != "acme" {
		t.Fatalf("fitting batch: state %s tenant %s", bv.Jobs[0].State, bv.Tenant)
	}
}

// TestListPagination: limit/page_token walk the submit order without
// gaps or repeats, and state filtering composes with it.
func TestListPagination(t *testing.T) {
	release := make(chan struct{})
	close(release)
	started := make(chan string, 64)
	_, ts := newTestServer(t, Config{Workers: 2, Execute: blockingExec(started, release)})

	var ids []string
	for i := 0; i < 5; i++ {
		spec := mcSpec(2)
		spec.Seed = uint64(i + 1)
		resp, v := submit(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
		waitTerminal(t, ts, v.ID)
	}

	type page struct {
		Jobs          []View `json:"jobs"`
		NextPageToken string `json:"next_page_token"`
	}
	var got []string
	token := ""
	pages := 0
	for {
		path := "/v1/jobs?limit=2"
		if token != "" {
			path += "&page_token=" + token
		}
		var p page
		if resp := doAs(t, ts, "", "GET", path, nil, &p); resp.StatusCode != http.StatusOK {
			t.Fatalf("list: status %d", resp.StatusCode)
		}
		pages++
		for _, v := range p.Jobs {
			got = append(got, v.ID)
		}
		if p.NextPageToken == "" {
			break
		}
		token = p.NextPageToken
	}
	if pages != 3 || len(got) != 5 {
		t.Fatalf("pagination walked %d pages / %d jobs, want 3 / 5", pages, len(got))
	}
	for i, id := range got {
		if id != ids[i] {
			t.Fatalf("page order: job %d = %s, want %s", i, id, ids[i])
		}
	}

	// State filter: everything is done, so filtering on queued is empty
	// and on done returns all five.
	var p page
	doAs(t, ts, "", "GET", "/v1/jobs?state=queued", nil, &p)
	if len(p.Jobs) != 0 {
		t.Fatalf("state=queued lists %d jobs, want 0", len(p.Jobs))
	}
	doAs(t, ts, "", "GET", "/v1/jobs?state=done", nil, &p)
	if len(p.Jobs) != 5 {
		t.Fatalf("state=done lists %d jobs, want 5", len(p.Jobs))
	}
	// Malformed parameters are structured 400s.
	for _, bad := range []string{"?limit=0", "?limit=x", "?state=bogus"} {
		var e ErrorBody
		resp := doAs(t, ts, "", "GET", "/v1/jobs"+bad, nil, &e)
		if resp.StatusCode != http.StatusBadRequest || e.Code != ErrBadArgument {
			t.Fatalf("list%s: status %d code %q, want 400 %q", bad, resp.StatusCode, e.Code, ErrBadArgument)
		}
	}
}

// TestReadyzDrain: /readyz fails during a drain while /healthz stays
// green, so balancers rotate the instance out without killing it.
func TestReadyzDrain(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, Execute: blockingExec(started, release)})

	if resp := doAs(t, ts, "", "GET", "/readyz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: status %d, want 200", resp.StatusCode)
	}
	if _, v := submit(t, ts, mcSpec(2)); v.ID == "" {
		t.Fatal("submit failed")
	}
	<-started

	drainDone := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		close(drainDone)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var e ErrorBody
		resp := doAs(t, ts, "", "GET", "/readyz", nil, &e)
		if resp.StatusCode == http.StatusServiceUnavailable {
			if e.Code != ErrNotReady {
				t.Fatalf("draining readyz code %q, want %q", e.Code, ErrNotReady)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz still 200 5s into the drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	var health map[string]any
	if resp := doAs(t, ts, "", "GET", "/healthz", nil, &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: status %d, want 200 (liveness)", resp.StatusCode)
	}
	if health["draining"] != true {
		t.Fatal("healthz does not report draining")
	}
	close(release)
	<-drainDone
}

// TestRestartFairShareAccounting: journaled tenant provenance rebuilds
// the scheduler's per-tenant scheduled counts and stride passes, so a
// tenant that consumed more than its share before a restart does not
// resume at parity.
func TestRestartFairShareAccounting(t *testing.T) {
	dir := t.TempDir()
	exec := func(ctx context.Context, spec *jobspec.Spec, _ jobspec.Options) (*jobspec.Result, error) {
		return &jobspec.Result{Kind: spec.Analysis}, nil
	}
	open := func() *store.Store {
		st, err := store.Open(dir, obs.NewRegistry(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	st := open()
	s1 := NewServer(Config{Workers: 1, Store: st, Execute: exec, Tenants: twoTenants()})
	ts1 := httptest.NewServer(s1)
	for i := 0; i < 6; i++ {
		spec := mcSpec(2)
		spec.Seed = uint64(i + 1)
		spec.NoCache = true
		if resp, v := submitAs(t, ts1, "k-acme", spec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("acme submit %d: status %d", i, resp.StatusCode)
		} else {
			waitTerminalAs(t, ts1, "k-acme", v.ID)
		}
	}
	for i := 0; i < 2; i++ {
		spec := mcSpec(2)
		spec.Seed = uint64(100 + i)
		spec.NoCache = true
		if resp, v := submitAs(t, ts1, "k-beta", spec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("beta submit %d: status %d", i, resp.StatusCode)
		} else {
			waitTerminalAs(t, ts1, "k-beta", v.ID)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = s1.Shutdown(ctx)
	cancel()
	ts1.Close()
	st.Close()

	st2 := open()
	defer st2.Close()
	s2 := NewServer(Config{Workers: 1, Store: st2, Execute: exec, Tenants: twoTenants()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()
	if got := s2.queue.tenantScheduled("acme"); got != 6 {
		t.Fatalf("restored acme scheduled = %d, want 6", got)
	}
	if got := s2.queue.tenantScheduled("beta"); got != 2 {
		t.Fatalf("restored beta scheduled = %d, want 2", got)
	}
	// Stride state: pass = scheduled/weight, so acme (6/3) and beta (2/1)
	// resume dead even — acme's extra volume was exactly its 3× share.
	s2.queue.mu.Lock()
	pa, pb := s2.queue.tenants["acme"].pass, s2.queue.tenants["beta"].pass
	s2.queue.mu.Unlock()
	if pa != 2 || pb != 2 {
		t.Fatalf("restored passes acme=%v beta=%v, want 2 and 2", pa, pb)
	}
}

// waitTerminalAs is waitTerminal with a tenant key.
func waitTerminalAs(t *testing.T, ts *httptest.Server, key, id string) View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v View
		resp := doAs(t, ts, key, "GET", "/v1/jobs/"+id, nil, &v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", id, resp.StatusCode)
		}
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s", id, v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestInteractiveBeforeBatch: within one tenant the scheduler serves the
// interactive lane before the batch lane regardless of arrival order.
func TestInteractiveBeforeBatch(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, Execute: blockingExec(started, release)})
	defer close(release)

	// Plug the worker, then queue one batch job before one interactive.
	if resp, _ := submit(t, ts, mcSpec(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatal("plug submit failed")
	}
	<-started
	post := func(class string, seed uint64) View {
		spec := mcSpec(2)
		spec.Seed = seed
		body, _ := json.Marshal(spec)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("X-Priority", class)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit class %s: status %d", class, resp.StatusCode)
		}
		return v
	}
	vb := post(ClassBatch, 11)
	vi := post(ClassInteractive, 12)
	if vb.Class != ClassBatch || vi.Class != ClassInteractive {
		t.Fatalf("classes %q/%q not echoed", vb.Class, vi.Class)
	}
	// Unblock the plug only: the next pop must be the interactive job
	// even though the batch job arrived first.
	release <- struct{}{}
	if got := <-started; got != "mc" {
		t.Fatalf("unexpected start signal %q", got)
	}
	// The running job now is the interactive one.
	deadline := time.Now().Add(5 * time.Second)
	for {
		gi := getJob(t, ts, vi.ID)
		gb := getJob(t, ts, vb.ID)
		if gi.State == StateRunning {
			if gb.State != StateQueued {
				t.Fatalf("batch job state %s while interactive runs, want queued", gb.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("interactive job still %s, batch %s", gi.State, gb.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = s
}
