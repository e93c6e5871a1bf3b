package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/variation"
)

// --- raw-URL helpers (fleet tests address servers by base URL, which
// must be known before the server starts, so httptest.NewServer's
// after-the-fact URL does not fit) ---

// serveOn mounts a server on a pre-created listener and returns its base
// URL. The listener is closed by the caller (some tests close it early,
// on purpose — that is the failure under test).
func serveOn(ln net.Listener, s *Server) string {
	go func() { _ = http.Serve(ln, s) }()
	return "http://" + ln.Addr().String()
}

func doURL(t *testing.T, method, url, key string, body []byte, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
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
			t.Fatalf("%s %s: decoding body: %v", method, url, err)
		}
	}
	return resp
}

func submitURL(t *testing.T, base, key string, spec *jobspec.Spec) View {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var v View
	resp := doURL(t, "POST", base+"/v1/jobs", key, body, &v)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit to %s: status %d, want 202", base, resp.StatusCode)
	}
	return v
}

func getURL(t *testing.T, base, key, id string) (View, int) {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/v1/jobs/"+id, nil)
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
	var v View
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

func waitTerminalURL(t *testing.T, base, key, id string) View {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, status := getURL(t, base, key, id)
		if status == http.StatusOK && v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still not terminal via %s (status %d, state %s)", id, base, status, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// --- shard dispatch failures: every one falls back to local execution,
// counted by cause ---

// fakePeer starts a stand-in for fleet node "b": it answers the health
// probe as b, so probeFleet marks it healthy, and hands the shard submit
// (POST /v1/jobs) to submit — the failure under test.
func fakePeer(t *testing.T, submit http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, fleetStatus{Node: "b"})
	})
	mux.HandleFunc("POST /v1/jobs", submit)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// originWithPeer starts fleet node "a" with node "b" at peerURL and
// probes b once, so placement sees an idle healthy peer and sends it
// every shard (a's own running campaign makes a the busier node).
func originWithPeer(t *testing.T, peerURL string, cfg Config) *httptest.Server {
	t.Helper()
	// a's own URL is never dialed by a; a placeholder keeps the table valid.
	cfg.Fleet = twoNodeFleet("a", "http://127.0.0.1:1", peerURL, "", "")
	s, ts := newTestServer(t, cfg)
	s.probeFleet(time.Now())
	if got := s.met.fleetHealthy.Value(); got != 2 {
		t.Fatalf("healthy nodes after probing the peer = %v, want 2", got)
	}
	return ts
}

// TestShardPeerFallbackLocal probes a peer healthy and then kills its
// listener: every dispatch must fall back to local execution, counted as
// unreachable, and the campaign must still complete — a dead peer costs
// throughput, never the result.
func TestShardPeerFallbackLocal(t *testing.T) {
	peer := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		t.Error("a closed peer answered a shard submit")
	})
	reg := obs.NewRegistry()
	ts := originWithPeer(t, peer.URL, Config{QueueDepth: 4, Workers: 1, Registry: reg})
	peer.Close()

	spec := mcSpec(96)
	spec.Seed = 34
	spec.MC.Shards = 2
	_, v := submit(t, ts, spec)
	fin := waitTerminal(t, ts, v.ID)
	if fin.State != StateDone {
		t.Fatalf("campaign with a dead peer = %s (error %q), want local fallback to done", fin.State, fin.Error)
	}
	var got jobspec.Result
	if err := json.Unmarshal(fin.Result, &got); err != nil {
		t.Fatal(err)
	}
	if got.MC == nil || got.MC.Completed() != 96 {
		t.Fatalf("fallback campaign = %+v, want 96 completed trials", got.MC)
	}
	snap := reg.Snapshot()
	if n, _ := snap.Counter("serve_shard_fallbacks_total"); n != 2 {
		t.Errorf("serve_shard_fallbacks_total = %d, want 2", n)
	}
	if n, _ := snap.Counter("serve_shard_fallbacks_unreachable_total"); n != 2 {
		t.Errorf("serve_shard_fallbacks_unreachable_total = %d, want 2", n)
	}
	if n, _ := snap.Counter("serve_shards_dispatched_total"); n != 0 {
		t.Errorf("serve_shards_dispatched_total = %d, want 0", n)
	}
}

// TestShardDispatchAuthRejectionCounted: a peer whose keyfile lacks the
// submitting tenant accepts the fleet key's probes but answers 401 to
// the tenant-scoped shard submits. The campaign must still complete by
// local fallback — and the fallbacks must be counted as auth rejections,
// distinct from unreachable peers, so the operator sees a key problem,
// not a network one.
func TestShardDispatchAuthRejectionCounted(t *testing.T) {
	// b knows only beta. Its own fleet table is never dialed in this test.
	_, peer := newTestServer(t, Config{QueueDepth: 16, Workers: 2,
		Tenants: []TenantConfig{{ID: "beta", Key: "k-beta", Weight: 1}},
		Fleet:   twoNodeFleet("b", "http://127.0.0.1:1", "http://127.0.0.1:2", "", "")})

	reg := obs.NewRegistry()
	ts := originWithPeer(t, peer.URL, Config{QueueDepth: 4, Workers: 1, Registry: reg, Tenants: twoTenants()})

	spec := mcSpec(48)
	spec.Seed = 52
	spec.MC.Shards = 2
	_, v := submitAs(t, ts, "k-acme", spec)
	fin := waitTerminalAs(t, ts, "k-acme", v.ID)
	if fin.State != StateDone {
		t.Fatalf("campaign = %s (error %q), want local-fallback done", fin.State, fin.Error)
	}
	var got jobspec.Result
	if err := json.Unmarshal(fin.Result, &got); err != nil {
		t.Fatal(err)
	}
	if got.MC == nil || got.MC.Completed() != 48 {
		t.Fatalf("fallback campaign = %+v, want 48 completed trials", got.MC)
	}
	snap := reg.Snapshot()
	if n, _ := snap.Counter("serve_shard_fallbacks_total"); n != 2 {
		t.Errorf("serve_shard_fallbacks_total = %d, want 2", n)
	}
	if n, _ := snap.Counter("serve_shard_fallbacks_auth_total"); n != 2 {
		t.Errorf("serve_shard_fallbacks_auth_total = %d, want 2", n)
	}
	if n, _ := snap.Counter("serve_shard_fallbacks_unreachable_total"); n != 0 {
		t.Errorf("serve_shard_fallbacks_unreachable_total = %d, want 0", n)
	}
}

// TestShardDispatchHungPeer: a peer that answers its probes but never
// answers a shard submit — the failure mode http.DefaultClient (no
// timeout) turned into a worker goroutine parked forever. With
// ShardHTTPTimeout the dispatch must time out, fall back locally
// (counted as unreachable), finish the campaign, and leak no goroutines.
func TestShardDispatchHungPeer(t *testing.T) {
	hang := make(chan struct{})
	peer := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		select { // hold the request open, answer nothing
		case <-r.Context().Done():
		case <-hang:
		}
	})
	t.Cleanup(func() { close(hang) }) // runs before the peer's Close

	baseline := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	ts := originWithPeer(t, peer.URL, Config{QueueDepth: 4, Workers: 1, Registry: reg,
		ShardHTTPTimeout: 300 * time.Millisecond})

	spec := mcSpec(48)
	spec.Seed = 53
	spec.MC.Shards = 2
	start := time.Now()
	_, v := submit(t, ts, spec)
	fin := waitTerminal(t, ts, v.ID)
	if fin.State != StateDone {
		t.Fatalf("campaign = %s (error %q), want local-fallback done", fin.State, fin.Error)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("campaign took %s against a hung peer; the timeout did not bite", elapsed)
	}
	snap := reg.Snapshot()
	if n, _ := snap.Counter("serve_shard_fallbacks_unreachable_total"); n != 2 {
		t.Errorf("serve_shard_fallbacks_unreachable_total = %d, want 2", n)
	}
	if n, _ := snap.Counter("serve_shard_fallbacks_auth_total"); n != 0 {
		t.Errorf("serve_shard_fallbacks_auth_total = %d, want 0", n)
	}

	// No goroutine may stay parked on the hung requests.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+15 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d now vs baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// cutAfterStarted passes an event stream through until the shard's
// started event, flushes it, and then drops the connection mid-stream.
type cutAfterStarted struct{ http.ResponseWriter }

func (w cutAfterStarted) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	if bytes.Contains(b, []byte(`"type":"started"`)) {
		w.Flush()
		panic(http.ErrAbortHandler)
	}
	return n, err
}

func (w cutAfterStarted) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// TestShardDispatchStreamResume: a peer drops each shard's first /events
// stream right after the shard starts, and the shards run on only once
// a stream has been reopened. The dispatcher must resume each stream
// past the events it has seen (?from=2: queued, started), finish both
// shards remotely with no fallback and no resubmission, and merge
// moments bit-identical to an unsharded run.
func TestShardDispatchStreamResume(t *testing.T) {
	reconnected := make(chan struct{})
	var (
		mu    sync.Mutex
		froms []string
	)
	cut := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/events") {
				from := r.URL.Query().Get("from")
				if from == "0" {
					next.ServeHTTP(cutAfterStarted{w}, r)
					return
				}
				mu.Lock()
				if froms = append(froms, from); len(froms) == 1 {
					close(reconnected)
				}
				mu.Unlock()
			}
			next.ServeHTTP(w, r)
		})
	}
	execB := func(ctx context.Context, sp *jobspec.Spec, opts jobspec.Options) (*jobspec.Result, error) {
		select { // a shard is halfway through until its stream is back
		case <-reconnected:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return jobspec.ExecuteOpts(ctx, sp, opts)
	}
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	_, sB, urlA, _ := startFleet(t,
		Config{QueueDepth: 8, Workers: 1, Registry: regA, Tenants: twoTenants()},
		Config{QueueDepth: 8, Workers: 2, Registry: regB, Tenants: twoTenants(), Execute: execB}, cut)

	spec := mcSpec(96)
	spec.Seed = 54
	spec.MC.Shards = 2
	v := submitURL(t, urlA, "k-acme", spec)
	fin := waitTerminalURL(t, urlA, "k-acme", v.ID)
	if fin.State != StateDone {
		t.Fatalf("campaign = %s (error %q), want done", fin.State, fin.Error)
	}
	assertUnshardedMoments(t, fin, spec)
	snap := regA.Snapshot()
	if n, _ := snap.Counter("serve_shards_dispatched_total"); n != 2 {
		t.Errorf("serve_shards_dispatched_total = %d, want 2", n)
	}
	if n, _ := snap.Counter("serve_shard_fallbacks_total"); n != 0 {
		t.Errorf("serve_shard_fallbacks_total = %d, want 0", n)
	}
	mu.Lock()
	if len(froms) != 2 || froms[0] != "2" || froms[1] != "2" {
		t.Errorf("reopened streams asked for from=%q, want one from=2 per shard", froms)
	}
	mu.Unlock()
	if n, _ := regB.Snapshot().Counter("serve_jobs_submitted_total"); n != 2 {
		t.Errorf("peer accepted %d sub-jobs, want 2 (no resubmission)", n)
	}
	sB.mu.Lock()
	held := len(sB.jobs)
	sB.mu.Unlock()
	if held != 2 {
		t.Errorf("peer holds %d jobs, want 2", held)
	}
}

// TestShardDispatchSilentEvents: a peer that accepts the shard submit
// and then holds every /events stream open without writing a byte. Each
// stream attempt times out after ShardHTTPTimeout; past the retry bound
// the dispatch must fall back locally, counted as unreachable, within a
// bounded time and without leaking goroutines.
func TestShardDispatchSilentEvents(t *testing.T) {
	hang := make(chan struct{})
	var ids atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, fleetStatus{Node: "b"})
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, View{ID: fmt.Sprintf("b-job-%06d", ids.Add(1)), State: StateQueued})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		select { // hold the stream open, write nothing
		case <-r.Context().Done():
		case <-hang:
		}
	})
	peer := httptest.NewServer(mux)
	t.Cleanup(peer.Close)
	t.Cleanup(func() { close(hang) }) // runs before the peer's Close

	baseline := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	ts := originWithPeer(t, peer.URL, Config{QueueDepth: 4, Workers: 1, Registry: reg,
		ShardHTTPTimeout: 300 * time.Millisecond})

	spec := mcSpec(48)
	spec.Seed = 55
	spec.MC.Shards = 2
	start := time.Now()
	_, v := submit(t, ts, spec)
	fin := waitTerminal(t, ts, v.ID)
	if fin.State != StateDone {
		t.Fatalf("campaign = %s (error %q), want local-fallback done", fin.State, fin.Error)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("campaign took %s against a silent stream; the retry bound did not bite", elapsed)
	}
	snap := reg.Snapshot()
	if n, _ := snap.Counter("serve_shard_fallbacks_unreachable_total"); n != 2 {
		t.Errorf("serve_shard_fallbacks_unreachable_total = %d, want 2", n)
	}
	if n, _ := snap.Counter("serve_shard_fallbacks_total"); n != 2 {
		t.Errorf("serve_shard_fallbacks_total = %d, want 2", n)
	}
	if n := ids.Load(); n != 2 {
		t.Errorf("peer saw %d shard submits, want 2", n)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+15 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d now vs baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShardDispatchFinishedBeforeAnswer: a peer's worker can finish a
// shard before the peer writes its 202 answer to the submit, which then
// reads done but, like every 202, carries no result. The peer here
// holds each submit answer until the shard is done. The dispatcher must
// still fetch the result rather than fall back, and merge moments
// bit-identical to an unsharded run.
func TestShardDispatchFinishedBeforeAnswer(t *testing.T) {
	var peer atomic.Pointer[Server]
	late := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			var v View
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Errorf("peer submit answer: %v", err)
				return
			}
			for j := peer.Load().job(v.ID); j != nil; time.Sleep(time.Millisecond) {
				if st, _ := j.terminalInfo(); st.Terminal() {
					v = j.view(false)
					break
				}
			}
			writeJSON(w, rec.Code, v)
		})
	}
	reg := obs.NewRegistry()
	_, sB, urlA, _ := startFleet(t,
		Config{QueueDepth: 8, Workers: 1, Registry: reg, Tenants: twoTenants()},
		Config{QueueDepth: 8, Workers: 2, Tenants: twoTenants()}, late)
	peer.Store(sB)

	spec := mcSpec(96)
	spec.Seed = 56
	spec.MC.Shards = 2
	v := submitURL(t, urlA, "k-acme", spec)
	fin := waitTerminalURL(t, urlA, "k-acme", v.ID)
	if fin.State != StateDone {
		t.Fatalf("campaign = %s (error %q), want done", fin.State, fin.Error)
	}
	assertUnshardedMoments(t, fin, spec)
	snap := reg.Snapshot()
	if n, _ := snap.Counter("serve_shards_dispatched_total"); n != 2 {
		t.Errorf("serve_shards_dispatched_total = %d, want 2", n)
	}
	if n, _ := snap.Counter("serve_shard_fallbacks_total"); n != 0 {
		t.Errorf("serve_shard_fallbacks_total = %d, want 0", n)
	}
}

// --- fleet federation ---

// twoNodeFleet builds the shared two-node fleet table. Probe pacing is
// set to an hour so the background prober never interferes: tests drive
// probeFleet by hand with a synthetic clock for determinism.
func twoNodeFleet(self, urlA, urlB, dirA, dirB string) *FleetConfig {
	return &FleetConfig{
		Self: self,
		Key:  "k-fleet",
		Nodes: []FleetNode{
			{ID: "a", URL: urlA, DataDir: dirA},
			{ID: "b", URL: urlB, DataDir: dirB},
		},
		ProbeEvery:    jobspec.Duration(time.Hour),
		QuarantineMax: jobspec.Duration(time.Hour),
		TakeoverAfter: 2,
	}
}

// TestFleetForwarding: a job submitted on node A is answered by node B —
// poll, events stream and cancel all forward to the owner resolved from
// the ID prefix — while the hop guard keeps an unknown ID at one extra
// hop (404, no loop) and cross-tenant probing stays a 404 through the
// forwarder.
func TestFleetForwarding(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	urlA := "http://" + lnA.Addr().String()
	urlB := "http://" + lnB.Addr().String()

	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	sA := NewServer(Config{QueueDepth: 8, Workers: 1, Registry: regA, Tenants: twoTenants(),
		Fleet: twoNodeFleet("a", urlA, urlB, "", "")})
	sB := NewServer(Config{QueueDepth: 8, Workers: 1, Registry: regB, Tenants: twoTenants(),
		Fleet: twoNodeFleet("b", urlA, urlB, "", "")})
	serveOn(lnA, sA)
	serveOn(lnB, sB)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sA.Shutdown(ctx)
		_ = sB.Shutdown(ctx)
		lnA.Close()
		lnB.Close()
	})

	v := submitURL(t, urlA, "k-acme", mcSpec(8))
	if ownerFromID(v.ID) != "a" {
		t.Fatalf("job id %q does not carry the owner prefix", v.ID)
	}

	// Poll through B: forwarded to A, answered 200.
	fin := waitTerminalURL(t, urlB, "k-acme", v.ID)
	if fin.State != StateDone {
		t.Fatalf("forwarded job = %s, want done", fin.State)
	}
	if n, _ := regB.Snapshot().Counter("serve_fleet_forwards_total"); n == 0 {
		t.Error("B answered A's job without forwarding")
	}

	// The events stream forwards too, ending with the terminal event.
	req, err := http.NewRequest("GET", urlB+"/v1/jobs/"+v.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer k-acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded events stream: status %d", resp.StatusCode)
	}
	var lastType string
	dec := json.NewDecoder(resp.Body)
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			break
		}
		lastType = ev.Type
	}
	resp.Body.Close()
	if lastType != "done" {
		t.Errorf("forwarded stream ended with %q, want done", lastType)
	}

	// Cross-tenant access stays a 404 through the forwarder: B forwards
	// with the caller's tenant scope, and A refuses to leak acme's job to
	// beta exactly as it would locally.
	if _, status := getURL(t, urlB, "k-beta", v.ID); status != http.StatusNotFound {
		t.Errorf("cross-tenant forwarded GET: status %d, want 404", status)
	}

	// Hop guard: an ID no node holds costs one forward each way, never a
	// loop — B asks owner A, A answers 404 without re-forwarding.
	if _, status := getURL(t, urlB, "k-acme", "a-job-999999"); status != http.StatusNotFound {
		t.Errorf("unknown fleet job: status %d, want 404", status)
	}
	// An unprefixed ID resolves to no owner and dies locally.
	if _, status := getURL(t, urlB, "k-acme", "nope"); status != http.StatusNotFound {
		t.Errorf("unprefixed id: status %d, want 404", status)
	}
}

// TestFleetShardCacheHitStaysInternal: a fleet-internal shard submission
// answered from the result cache is admitted exactly like one that
// queues — journaled internal, and skipped by the per-tenant
// instruments, because the dispatching node already admitted the
// campaign under its tenant.
func TestFleetShardCacheHitStaysInternal(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st := mustStore(t, dir, reg)
	t.Cleanup(func() { st.Close() })
	_, ts := newTestServer(t, Config{Workers: 1, Registry: reg, Store: st,
		Fleet: twoNodeFleet("a", "http://127.0.0.1:1", "http://127.0.0.1:2", "", "")})
	body, err := json.Marshal(mcSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	var first, second View
	if resp := doURL(t, "POST", ts.URL+"/v1/jobs", "k-fleet", body, &first); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first shard submit: status %d, want 202", resp.StatusCode)
	}
	waitTerminalURL(t, ts.URL, "k-fleet", first.ID)
	if resp := doURL(t, "POST", ts.URL+"/v1/jobs", "k-fleet", body, &second); resp.StatusCode != http.StatusOK || !second.Cached {
		t.Fatalf("identical shard submit: status %d cached %v, want a cached 200", resp.StatusCode, second.Cached)
	}
	if n, _ := reg.Snapshot().Counter("serve_tenant_default_admitted_total"); n != 0 {
		t.Errorf("serve_tenant_default_admitted_total = %d, want 0 for fleet-internal shards", n)
	}
	recovered, err := store.ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 2 {
		t.Fatalf("journal holds %d jobs, want 2", len(recovered))
	}
	for _, r := range recovered {
		if !r.Internal {
			t.Errorf("job %s journaled internal=false", r.ID)
		}
	}
}

// TestFleetQuarantineRecovery drives the probe state machine by hand: a
// dead node is quarantined with growing backoff (no hammering — a probe
// inside the backoff window is skipped), and a recovered node is probed
// back to healthy, resuming placement eligibility.
func TestFleetQuarantineRecovery(t *testing.T) {
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := lnB.Addr().String()
	urlB := "http://" + addrB

	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	// A's own URL is never dialed by A; a placeholder keeps the table valid.
	sA := NewServer(Config{QueueDepth: 8, Workers: 1, Registry: regA,
		Fleet: twoNodeFleet("a", "http://127.0.0.1:1", urlB, "", "")})
	sB := NewServer(Config{QueueDepth: 8, Workers: 1, Registry: regB,
		Fleet: twoNodeFleet("b", "http://127.0.0.1:1", urlB, "", "")})
	serveOn(lnB, sB)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sA.Shutdown(ctx)
		_ = sB.Shutdown(ctx)
		lnB.Close()
	})

	now := time.Now()
	sA.probeFleet(now)
	if got := sA.met.fleetHealthy.Value(); got != 2 {
		t.Fatalf("healthy nodes after first probe = %v, want 2", got)
	}

	// Kill B's listener: the next due probe fails and quarantines it.
	lnB.Close()
	sA.probeFleet(now.Add(3 * time.Hour))
	if got := sA.met.fleetHealthy.Value(); got != 1 {
		t.Fatalf("healthy nodes after kill = %v, want 1", got)
	}
	fails, _ := regA.Snapshot().Counter("serve_fleet_probe_failures_total")
	if fails != 1 {
		t.Fatalf("probe failures = %d, want 1", fails)
	}

	// Inside the backoff window the quarantined node is NOT re-probed.
	before, _ := regA.Snapshot().Counter("serve_fleet_probes_total")
	sA.probeFleet(now.Add(3*time.Hour + time.Second))
	if after, _ := regA.Snapshot().Counter("serve_fleet_probes_total"); after != before {
		t.Errorf("quarantined node probed inside its backoff window (%d -> %d)", before, after)
	}

	// B comes back on the same address; the next due probe recovers it.
	lnB2, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer lnB2.Close()
	serveOn(lnB2, sB)
	sA.probeFleet(now.Add(6 * time.Hour))
	if got := sA.met.fleetHealthy.Value(); got != 2 {
		t.Fatalf("healthy nodes after recovery = %v, want 2", got)
	}
	sA.fleet.mu.Lock()
	p := sA.fleet.peers["b"]
	healthy, consec := p.healthy, p.fails
	sA.fleet.mu.Unlock()
	if !healthy || consec != 0 {
		t.Errorf("recovered peer healthy=%v fails=%d, want true/0", healthy, consec)
	}
}

// TestFleetKillAndFailoverResume is the two-node acceptance run, under
// -race via `make race-fleet`: a campaign freezes mid-run on its owning
// node B while node A, seeing B's running job through the probes,
// enforces the tenant's fleet-wide max_running=1 by holding its own acme
// job queued. Then B dies (listener closed, worker still frozen — a
// hang, the worst kind of death) and after TakeoverAfter failed probes A
// adopts B's job from B's journal, resumes it from the last merged chunk
// checkpoint, and finishes it bit-identical to an uninterrupted
// single-node run — after which A's own job, no longer capped by B's
// phantom load, runs too.
func TestFleetKillAndFailoverResume(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	urlA := "http://" + lnA.Addr().String()
	urlB := "http://" + lnB.Addr().String()
	tenants := []TenantConfig{
		{ID: "acme", Key: "k-acme", Weight: 1, MaxRunning: 1},
	}

	regA := obs.NewRegistry()
	stA := mustStore(t, dirA, regA)
	sA := NewServer(Config{QueueDepth: 8, Workers: 1, Store: stA, Registry: regA,
		Tenants: tenants, Fleet: twoNodeFleet("a", urlA, urlB, dirA, dirB)})
	serveOn(lnA, sA)

	// B's executor runs the real engine but freezes inside the checkpoint
	// hook after chunk 1 is journaled — the moment a death hurts most.
	const trials = 96 // chunk size 24 → a 4-chunk campaign
	frozen := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	execB := func(ctx context.Context, sp *jobspec.Spec, opts jobspec.Options) (*jobspec.Result, error) {
		inner := opts.OnCheckpoint
		opts.OnCheckpoint = func(cp jobspec.Checkpoint) {
			if inner != nil {
				inner(cp)
			}
			if cp.Seq == 1 {
				once.Do(func() { close(frozen) })
				<-release
			}
		}
		return jobspec.ExecuteOpts(ctx, sp, opts)
	}
	regB := obs.NewRegistry()
	stB := mustStore(t, dirB, regB)
	sB := NewServer(Config{QueueDepth: 8, Workers: 1, Store: stB, Registry: regB,
		Tenants: tenants, Fleet: twoNodeFleet("b", urlA, urlB, dirA, dirB), Execute: execB})
	serveOn(lnB, sB)

	t.Cleanup(func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sA.Shutdown(ctx)
		_ = sB.Shutdown(ctx)
		lnA.Close()
		lnB.Close()
		stA.Close()
		stB.Close()
	})

	spec := mcSpec(trials)
	spec.Seed = 61
	vB := submitURL(t, urlB, "k-acme", spec)
	if ownerFromID(vB.ID) != "b" {
		t.Fatalf("job id %q not owned by b", vB.ID)
	}
	select {
	case <-frozen:
	case <-time.After(30 * time.Second):
		t.Fatal("campaign never journaled its second checkpoint")
	}

	// A probes B healthy and sees acme running one job fleet-wide.
	now := time.Now()
	sA.probeFleet(now)
	if n := sA.fleet.runningFor("acme"); n != 1 {
		t.Fatalf("fleet-wide acme running = %d, want 1", n)
	}

	// Fleet-wide max_running: A's own acme job must hold in the queue
	// while B runs the tenant's one slot.
	vA := submitURL(t, urlA, "k-acme", mcSpec(8))
	time.Sleep(300 * time.Millisecond)
	if v, _ := getURL(t, urlA, "k-acme", vA.ID); v.State != StateQueued {
		t.Fatalf("A's job = %s while B holds acme's fleet-wide slot, want queued", v.State)
	}

	// Kill B: the listener dies, the frozen worker keeps holding the job —
	// exactly what a survivor sees when a peer hangs or loses power.
	lnB.Close()

	// Two failed probe rounds cross TakeoverAfter=2; A (lowest live ID)
	// adopts B's unfinished campaign from B's journal.
	sA.probeFleet(now.Add(3 * time.Hour))
	sA.probeFleet(now.Add(6 * time.Hour))
	if n, _ := regA.Snapshot().Counter("serve_fleet_takeovers_total"); n != 1 {
		t.Fatalf("serve_fleet_takeovers_total = %d, want 1", n)
	}
	if n, _ := regA.Snapshot().Counter("serve_jobs_resumed_total"); n != 1 {
		t.Errorf("serve_jobs_resumed_total = %d, want 1 (adoption should resume from checkpoints)", n)
	}

	// The adopted campaign finishes on A, resumed from B's checkpoints,
	// bit-identical to an uninterrupted run.
	fin := waitTerminalURL(t, urlA, "k-acme", vB.ID)
	if fin.State != StateDone {
		t.Fatalf("adopted campaign = %s (error %q), want done", fin.State, fin.Error)
	}
	var got jobspec.Result
	if err := json.Unmarshal(fin.Result, &got); err != nil {
		t.Fatal(err)
	}
	if got.MC == nil || got.MC.Stats == nil {
		t.Fatalf("adopted result carries no campaign stats: %+v", got.MC)
	}
	if got.MC.Resumed != 2 {
		t.Errorf("adopted campaign resumed %d chunks, want the 2 B journaled", got.MC.Resumed)
	}
	if got.MC.Completed() != trials {
		t.Errorf("adopted campaign completed %d trials, want %d", got.MC.Completed(), trials)
	}
	ref := mcSpec(trials)
	ref.Seed = 61
	ref.ApplyDefaults()
	want, err := jobspec.Execute(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if got.MC.Stats.Moments != want.MC.Stats.Moments {
		t.Errorf("failover-resumed moments\n%+v\ndiffer from the uninterrupted run's\n%+v",
			got.MC.Stats.Moments, want.MC.Stats.Moments)
	}

	// With B dead its phantom load no longer counts: A's own acme job got
	// the fleet-wide slot back and finished.
	finA := waitTerminalURL(t, urlA, "k-acme", vA.ID)
	if finA.State != StateDone {
		t.Errorf("A's queued job = %s after failover, want done", finA.State)
	}
}

// TestFleetShardPlacement: fleet placement sends shards to the probed
// least-backlog node — every shard of a k=4 campaign lands on the idle
// peer, answered under the fleet key and the submitting tenant, and the
// merged moments stay bit-identical to an unsharded run — while with no
// healthy peer it keeps everything local without a single dispatch
// attempt.
func TestFleetShardPlacement(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	urlA := "http://" + lnA.Addr().String()
	urlB := "http://" + lnB.Addr().String()

	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	sA := NewServer(Config{QueueDepth: 16, Workers: 1, Registry: regA, Tenants: twoTenants(),
		Fleet: twoNodeFleet("a", urlA, urlB, "", "")})
	sB := NewServer(Config{QueueDepth: 16, Workers: 2, Registry: regB, Tenants: twoTenants(),
		Fleet: twoNodeFleet("b", urlA, urlB, "", "")})
	serveOn(lnA, sA)
	serveOn(lnB, sB)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sA.Shutdown(ctx)
		_ = sB.Shutdown(ctx)
		lnA.Close()
		lnB.Close()
	})

	// Before any probe: every peer is unknown/unhealthy, so shards stay
	// local — no blind dispatch into the dark.
	spec := mcSpec(48)
	spec.Seed = 71
	spec.MC.Shards = 2
	v := submitURL(t, urlA, "k-acme", spec)
	fin := waitTerminalURL(t, urlA, "k-acme", v.ID)
	if fin.State != StateDone {
		t.Fatalf("pre-probe campaign = %s, want done", fin.State)
	}
	snap := regA.Snapshot()
	if n, _ := snap.Counter("serve_shards_placed_local_total"); n != 2 {
		t.Errorf("serve_shards_placed_local_total = %d, want 2 (no healthy peer)", n)
	}
	if n, _ := snap.Counter("serve_shard_fallbacks_total"); n != 0 {
		t.Errorf("serve_shard_fallbacks_total = %d, want 0 — local placement is not a fallback", n)
	}

	// After a probe, B is idle while A runs the campaign itself, so B is
	// the least-backlog node for every shard: all four reach the peer,
	// which executes real sub-jobs under the submitting tenant.
	sA.probeFleet(time.Now())
	spec2 := mcSpec(96)
	spec2.Seed = 72
	spec2.MC.Shards = 4
	v2 := submitURL(t, urlA, "k-acme", spec2)
	fin2 := waitTerminalURL(t, urlA, "k-acme", v2.ID)
	if fin2.State != StateDone {
		t.Fatalf("fleet-placed campaign = %s (error %q), want done", fin2.State, fin2.Error)
	}
	if n, _ := regA.Snapshot().Counter("serve_shards_dispatched_total"); n != 4 {
		t.Errorf("serve_shards_dispatched_total = %d, want 4", n)
	}
	if n, _ := regA.Snapshot().Counter("serve_shard_fallbacks_total"); n != 0 {
		t.Errorf("serve_shard_fallbacks_total = %d, want 0", n)
	}
	// The peer ran the dispatched shards as fleet-internal sub-jobs:
	// admitted and executed, but never charged to acme's own instruments.
	if n, _ := regB.Snapshot().Counter("serve_jobs_submitted_total"); n != 4 {
		t.Errorf("peer accepted %d sub-jobs, want 4", n)
	}
	if n, _ := regB.Snapshot().Counter("serve_tenant_acme_admitted_total"); n != 0 {
		t.Errorf("peer charged %d fleet-internal sub-jobs to acme's admission counter, want 0", n)
	}

	var got jobspec.Result
	if err := json.Unmarshal(fin2.Result, &got); err != nil {
		t.Fatal(err)
	}
	if got.MC == nil || got.MC.Stats == nil || got.MC.Shards != 4 {
		t.Fatalf("fleet-placed outcome = %+v, want stats from a 4-way fan-out", got.MC)
	}
	if got.MC.Completed() != 96 {
		t.Errorf("fleet-placed campaign completed %d trials, want 96", got.MC.Completed())
	}
	ref := mcSpec(96)
	ref.Seed = 72
	ref.ApplyDefaults()
	want, err := jobspec.Execute(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	if got.MC.Stats.Moments != want.MC.Stats.Moments {
		t.Errorf("fleet-placed moments\n%+v\ndiffer from the unsharded run's\n%+v",
			got.MC.Stats.Moments, want.MC.Stats.Moments)
	}
}

// startFleet starts fleet nodes a and b on loopback listeners with cfgA
// and cfgB (their Fleet tables filled in here), b's handler wrapped in
// wrapB when non-nil, and has each node probe the other once, so
// placement sees a healthy, idle peer.
func startFleet(t *testing.T, cfgA, cfgB Config, wrapB func(http.Handler) http.Handler) (sA, sB *Server, urlA, urlB string) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	urlA = "http://" + lnA.Addr().String()
	urlB = "http://" + lnB.Addr().String()
	cfgA.Fleet = twoNodeFleet("a", urlA, urlB, "", "")
	cfgB.Fleet = twoNodeFleet("b", urlA, urlB, "", "")
	sA, sB = NewServer(cfgA), NewServer(cfgB)
	var hB http.Handler = sB
	if wrapB != nil {
		hB = wrapB(sB)
	}
	go func() { _ = http.Serve(lnA, sA) }()
	go func() { _ = http.Serve(lnB, hB) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sA.Shutdown(ctx)
		_ = sB.Shutdown(ctx)
		lnA.Close()
		lnB.Close()
	})
	now := time.Now()
	sA.probeFleet(now)
	sB.probeFleet(now)
	if sA.fleet.healthyCount() != 2 || sB.fleet.healthyCount() != 2 {
		t.Fatal("fleet nodes do not see each other healthy after a probe")
	}
	return sA, sB, urlA, urlB
}

// assertUnshardedMoments checks a finished campaign's merged moments are
// bit-identical to a single-node, unsharded run of spec.
func assertUnshardedMoments(t *testing.T, fin View, spec *jobspec.Spec) {
	t.Helper()
	var got jobspec.Result
	if err := json.Unmarshal(fin.Result, &got); err != nil {
		t.Fatal(err)
	}
	if got.MC == nil || got.MC.Stats == nil || got.MC.Completed() != spec.MC.Trials {
		t.Fatalf("campaign %s outcome = %+v, want stats over %d trials", fin.ID, got.MC, spec.MC.Trials)
	}
	ref := *spec
	mc := *spec.MC
	mc.Shards = 0
	ref.MC = &mc
	ref.ApplyDefaults()
	want, err := jobspec.Execute(context.Background(), &ref)
	if err != nil {
		t.Fatal(err)
	}
	if got.MC.Stats.Moments != want.MC.Stats.Moments {
		t.Errorf("campaign %s moments\n%+v\ndiffer from the unsharded run's\n%+v",
			fin.ID, got.MC.Stats.Moments, want.MC.Stats.Moments)
	}
}

// TestFleetPlacementLoadAwareWithoutRegistry: with no metrics registry
// on either node, the node running a campaign still counts that
// campaign as load, so every shard goes to the idle peer instead of
// being split round-robin between the two.
func TestFleetPlacementLoadAwareWithoutRegistry(t *testing.T) {
	sA, sB, urlA, _ := startFleet(t,
		Config{QueueDepth: 16, Workers: 1, Tenants: twoTenants()},
		Config{QueueDepth: 16, Workers: 2, Tenants: twoTenants()}, nil)
	spec := mcSpec(96)
	spec.Seed = 73
	spec.MC.Shards = 4
	v := submitURL(t, urlA, "k-acme", spec)
	fin := waitTerminalURL(t, urlA, "k-acme", v.ID)
	if fin.State != StateDone {
		t.Fatalf("campaign = %s (error %q), want done", fin.State, fin.Error)
	}
	assertUnshardedMoments(t, fin, spec)
	sB.mu.Lock()
	onB := len(sB.jobs)
	sB.mu.Unlock()
	if onB != 4 {
		t.Errorf("idle peer ran %d of 4 shards, want all 4", onB)
	}
	if n := sA.inflight.Load(); n != 0 {
		t.Errorf("in-flight count after the campaign = %d, want 0", n)
	}
}

// TestFleetWorkersOneCrossPlacement is the cross-placement deadlock:
// two nodes with one worker each run a campaign apiece and place every
// shard on the other node, where it queues behind the campaign that
// waits for it. A shard the peer has not started within
// ShardHTTPTimeout must be withdrawn and run locally, so both campaigns
// finish, bit-identical to single-node runs.
func TestFleetWorkersOneCrossPlacement(t *testing.T) {
	// Each campaign holds its node's only worker until both are running,
	// so the shards are placed while both nodes are busy.
	var both sync.WaitGroup
	both.Add(2)
	exec := func(ctx context.Context, sp *jobspec.Spec, opts jobspec.Options) (*jobspec.Result, error) {
		if sp.MC != nil && sp.MC.Range == nil {
			both.Done()
			both.Wait()
		}
		return jobspec.ExecuteOpts(ctx, sp, opts)
	}
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	const timeout = 300 * time.Millisecond
	_, _, urlA, urlB := startFleet(t,
		Config{QueueDepth: 8, Workers: 1, Registry: regA, Tenants: twoTenants(), ShardHTTPTimeout: timeout, Execute: exec},
		Config{QueueDepth: 8, Workers: 1, Registry: regB, Tenants: twoTenants(), ShardHTTPTimeout: timeout, Execute: exec}, nil)

	specA, specB := mcSpec(96), mcSpec(96)
	specA.Seed, specB.Seed = 74, 75
	specA.MC.Shards, specB.MC.Shards = 2, 2
	vA := submitURL(t, urlA, "k-acme", specA)
	vB := submitURL(t, urlB, "k-acme", specB)
	for _, c := range []struct {
		url  string
		id   string
		spec *jobspec.Spec
	}{{urlA, vA.ID, specA}, {urlB, vB.ID, specB}} {
		fin := waitTerminalURL(t, c.url, "k-acme", c.id)
		if fin.State != StateDone {
			t.Fatalf("campaign %s = %s (error %q), want done", c.id, fin.State, fin.Error)
		}
		assertUnshardedMoments(t, fin, c.spec)
	}
	var fallbacks, dispatched, unreachable int64
	for _, reg := range []*obs.Registry{regA, regB} {
		snap := reg.Snapshot()
		n, _ := snap.Counter("serve_shard_fallbacks_total")
		fallbacks += n
		n, _ = snap.Counter("serve_shards_dispatched_total")
		dispatched += n
		n, _ = snap.Counter("serve_shard_fallbacks_unreachable_total")
		unreachable += n
	}
	// The first campaign to finish cannot have had a shard run on the
	// other, still-busy node: both of its shards fell back.
	if fallbacks < 2 || fallbacks+dispatched != 4 {
		t.Errorf("%d fallbacks and %d dispatched shards, want at least 2 fallbacks of 4 shards", fallbacks, dispatched)
	}
	if unreachable != 0 {
		t.Errorf("%d fallbacks counted unreachable, want 0: both peers answered", unreachable)
	}
}

// TestFleetJournalsEachChunkOnce: a campaign whose shards run on a peer
// journals each chunk once, on the dispatching node, which owns resume.
// Summed across both stores, the checkpoints equal the campaign's chunks.
func TestFleetJournalsEachChunkOnce(t *testing.T) {
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	stA, stB := mustStore(t, t.TempDir(), regA), mustStore(t, t.TempDir(), regB)
	t.Cleanup(func() {
		stA.Close()
		stB.Close()
	})
	_, _, urlA, _ := startFleet(t,
		Config{QueueDepth: 8, Workers: 1, Registry: regA, Store: stA, Tenants: twoTenants()},
		Config{QueueDepth: 8, Workers: 2, Registry: regB, Store: stB, Tenants: twoTenants()}, nil)
	spec := mcSpec(96)
	spec.Seed = 76
	spec.MC.Shards = 2
	v := submitURL(t, urlA, "k-acme", spec)
	fin := waitTerminalURL(t, urlA, "k-acme", v.ID)
	if fin.State != StateDone {
		t.Fatalf("campaign = %s (error %q), want done", fin.State, fin.Error)
	}
	if n, _ := regA.Snapshot().Counter("serve_shards_dispatched_total"); n != 2 {
		t.Fatalf("serve_shards_dispatched_total = %d, want both shards on the peer", n)
	}
	a, _ := regA.Snapshot().Counter("store_checkpoints_total")
	b, _ := regB.Snapshot().Counter("store_checkpoints_total")
	if chunks := int64(variation.NumChunks(spec.MC.Trials)); a+b != chunks {
		t.Errorf("journaled %d checkpoints on the dispatcher and %d on the peer, want %d in all (one per chunk)", a, b, chunks)
	}
}

// validFleetConfig is the two-node table the config tests break one
// field at a time.
func validFleetConfig() *FleetConfig {
	c := &FleetConfig{Self: "a", Key: "k", Nodes: []FleetNode{
		{ID: "a", URL: "http://h1:1"}, {ID: "b", URL: "http://h2:1"},
	}}
	c.applyDefaults()
	return c
}

// brokenFleetConfigs maps each config guard to a mutation of
// validFleetConfig that must trip it.
var brokenFleetConfigs = map[string]func(*FleetConfig){
	"no key":         func(c *FleetConfig) { c.Key = "" },
	"self missing":   func(c *FleetConfig) { c.Self = "zz" },
	"dup id":         func(c *FleetConfig) { c.Nodes[1].ID = "a" },
	"dup url":        func(c *FleetConfig) { c.Nodes[1].URL = c.Nodes[0].URL },
	"dup url slash":  func(c *FleetConfig) { c.Nodes[1].URL = c.Nodes[0].URL + "/" },
	"empty id":       func(c *FleetConfig) { c.Nodes[0].ID = "" },
	"reserved infix": func(c *FleetConfig) { c.Nodes[0].ID = "x-job-y"; c.Self = "x-job-y" },
	"reserved tail":  func(c *FleetConfig) { c.Nodes[0].ID = "x-job"; c.Self = "x-job" },
	"no url":         func(c *FleetConfig) { c.Nodes[1].URL = "" },
}

// TestFleetConfigValidate covers the config guards that keep a bad
// fleet.json from running half-federated.
func TestFleetConfigValidate(t *testing.T) {
	if err := validFleetConfig().validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mutate := range brokenFleetConfigs {
		c := validFleetConfig()
		mutate(c)
		if err := c.validate(); err == nil {
			t.Errorf("%s: validate accepted a broken config", name)
		}
	}
	if owner := ownerFromID("b-job-000123"); owner != "b" {
		t.Errorf("ownerFromID = %q, want b", owner)
	}
	if owner := ownerFromID("job-000123"); owner != "" {
		t.Errorf("ownerFromID(unprefixed) = %q, want empty", owner)
	}
	if n, ok := jobSeq("a-job-000042", "a-"); !ok || n != 42 {
		t.Errorf("jobSeq own prefix = %d,%v, want 42,true", n, ok)
	}
	if _, ok := jobSeq("b-job-000042", "a-"); ok {
		t.Error("jobSeq accepted a foreign prefix")
	}
}

// FuzzFleetConfig feeds arbitrary JSON through the LoadFleet pipeline
// (unmarshal, applyDefaults, validate). It must never panic, and every
// config it accepts must be one the fleet can route by: unique node IDs
// and URLs, Self in the table, no trailing "/" on a URL (request paths
// are appended to it), and every node's job IDs resolving back to that
// node with their sequence number intact.
func FuzzFleetConfig(f *testing.F) {
	seed := func(c *FleetConfig) {
		b, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(validFleetConfig())
	for _, mutate := range brokenFleetConfigs {
		c := validFleetConfig()
		mutate(c)
		seed(c)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c := new(FleetConfig)
		if json.Unmarshal(b, c) != nil {
			return
		}
		c.applyDefaults()
		if c.validate() != nil {
			return
		}
		ids, urls := map[string]bool{}, map[string]bool{}
		for _, n := range c.Nodes {
			if ids[n.ID] || urls[n.URL] {
				t.Fatalf("accepted duplicate node %q at %q", n.ID, n.URL)
			}
			ids[n.ID], urls[n.URL] = true, true
			if strings.HasSuffix(n.URL, "/") {
				t.Fatalf("accepted url %q with a trailing slash", n.URL)
			}
			id := n.ID + "-job-000007"
			if owner := ownerFromID(id); owner != n.ID {
				t.Fatalf("ownerFromID(%q) = %q, want %q", id, owner, n.ID)
			}
			if seq, ok := jobSeq(id, n.ID+"-"); !ok || seq != 7 {
				t.Fatalf("jobSeq(%q) = %d,%v, want 7,true", id, seq, ok)
			}
		}
		if !ids[c.Self] {
			t.Fatalf("accepted self %q outside the node table", c.Self)
		}
	})
}

// outboundCounter is an http.RoundTripper that refuses and counts every
// request: installed on a lone server's clients, it proves the server
// never dials out.
type outboundCounter struct{ n atomic.Int64 }

func (c *outboundCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return nil, fmt.Errorf("outbound %s %s from a fleet of one", r.Method, r.URL)
}

// loneServer starts a server without a fleet config — a fleet of one —
// whose node-to-node clients all report to the returned counter.
func loneServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *outboundCounter) {
	t.Helper()
	s := NewServer(cfg)
	out := new(outboundCounter)
	s.shardClient.Transport = out
	s.probeClient.Transport = out
	s.streamClient.Transport = out
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts, out
}

// forgedFleetHeaders are requests that must never pass as node-to-node
// fleet calls on a fleet of one, whose fleet key is blank.
var forgedFleetHeaders = map[string]map[string]string{
	"no key":          {},
	"empty bearer":    {"Authorization": "Bearer "},
	"forwarded":       {fleetForwardedHeader: "b"},
	"tenant":          {fleetTenantHeader: "beta"},
	"forwarded+empty": {"Authorization": "Bearer ", fleetForwardedHeader: "b", fleetTenantHeader: "beta"},
}

func withHeaders(t *testing.T, method, url string, h map[string]string, body []byte) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range h {
		req.Header.Set(k, v)
	}
	return req
}

// TestSingleNodeFleetOfOne pins the wire behaviour of a server started
// without a fleet config, which runs the fleet code as a fleet of one:
// unprefixed job IDs, a /v1/fleet body without node or peers, a plain
// 404 for unknown IDs, shards placed locally and bit-identical to an
// unsharded run — all without a single outbound request. Its blank
// fleet key must authenticate nothing: no request, however its headers
// are forged, is admitted as a quota-exempt fleet call.
func TestSingleNodeFleetOfOne(t *testing.T) {
	t.Run("single-tenant", func(t *testing.T) {
		reg := obs.NewRegistry()
		s, ts, out := loneServer(t, Config{QueueDepth: 16, Workers: 1, Registry: reg})

		spec := mcSpec(96)
		spec.Seed = 81
		spec.MC.Shards = 4
		_, v := submit(t, ts, spec)
		if !regexp.MustCompile(`^job-\d{6}$`).MatchString(v.ID) {
			t.Errorf("job id %q, want unprefixed job-NNNNNN", v.ID)
		}
		fin := waitTerminal(t, ts, v.ID)
		if fin.State != StateDone {
			t.Fatalf("sharded campaign = %s (error %q), want done", fin.State, fin.Error)
		}
		var got jobspec.Result
		if err := json.Unmarshal(fin.Result, &got); err != nil {
			t.Fatal(err)
		}
		if got.MC == nil || got.MC.Stats == nil || got.MC.Shards != 4 || got.MC.Completed() != 96 {
			t.Fatalf("sharded outcome = %+v, want 96 trials from a 4-way fan-out", got.MC)
		}
		snap := reg.Snapshot()
		if n, _ := snap.Counter("serve_shards_placed_local_total"); n != 4 {
			t.Errorf("serve_shards_placed_local_total = %d, want 4", n)
		}
		for _, name := range []string{"serve_shards_dispatched_total", "serve_shard_fallbacks_total"} {
			if n, _ := snap.Counter(name); n != 0 {
				t.Errorf("%s = %d, want 0", name, n)
			}
		}
		ref := mcSpec(96)
		ref.Seed = 81
		ref.ApplyDefaults()
		want, err := jobspec.Execute(context.Background(), ref)
		if err != nil {
			t.Fatal(err)
		}
		if got.MC.Stats.Moments != want.MC.Stats.Moments {
			t.Errorf("locally sharded moments\n%+v\ndiffer from the unsharded run's\n%+v",
				got.MC.Stats.Moments, want.MC.Stats.Moments)
		}

		// /v1/fleet answers 200 with this node's load and nothing else.
		var doc map[string]json.RawMessage
		if resp := doURL(t, "GET", ts.URL+"/v1/fleet", "", nil, &doc); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/fleet: status %d, want 200", resp.StatusCode)
		}
		for _, k := range []string{"queue_depth", "inflight", "workers"} {
			if _, ok := doc[k]; !ok {
				t.Errorf("/v1/fleet lacks %q: %v", k, doc)
			}
		}
		for _, k := range []string{"node", "peers"} {
			if _, ok := doc[k]; ok {
				t.Errorf("/v1/fleet of a lone server carries %q: %s", k, doc[k])
			}
		}

		// Unknown IDs, prefixed or not, die here with a 404.
		for _, id := range []string{"job-999999", "b-job-000001"} {
			if _, status := getURL(t, ts.URL, "", id); status != http.StatusNotFound {
				t.Errorf("GET unknown %s: status %d, want 404", id, status)
			}
		}

		// Forged fleet headers never make a fleet call: every submission is
		// admitted under the default tenant, which internal calls skip. The
		// submissions are identical, so once the first has run the result
		// cache answers the rest (200) — admitted all the same.
		admitted, _ := reg.Snapshot().Counter("serve_tenant_default_admitted_total")
		body, _ := json.Marshal(mcSpec(8))
		for name, h := range forgedFleetHeaders {
			if s.isFleetReq(withHeaders(t, "POST", ts.URL+"/v1/jobs", h, nil)) {
				t.Errorf("%s: treated as a fleet request", name)
			}
			resp, err := http.DefaultClient.Do(withHeaders(t, "POST", ts.URL+"/v1/jobs", h, body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("%s: submit status %d, want 202 or a cached 200", name, resp.StatusCode)
			}
		}
		if n, _ := reg.Snapshot().Counter("serve_tenant_default_admitted_total"); n != admitted+int64(len(forgedFleetHeaders)) {
			t.Errorf("default tenant admitted %d of %d forged submissions; the rest ran as fleet calls",
				n-admitted, len(forgedFleetHeaders))
		}
		if n := out.n.Load(); n != 0 {
			t.Errorf("a fleet of one made %d outbound requests", n)
		}
	})

	t.Run("tenants", func(t *testing.T) {
		reg := obs.NewRegistry()
		s, ts, out := loneServer(t, Config{QueueDepth: 16, Workers: 1, Registry: reg, Tenants: twoTenants()})
		body, _ := json.Marshal(mcSpec(8))
		for name, h := range forgedFleetHeaders {
			req := withHeaders(t, "POST", ts.URL+"/v1/jobs", h, nil)
			if s.isFleetReq(req) {
				t.Errorf("%s: treated as a fleet request", name)
			}
			if _, ok := s.tenants.authenticate(req); ok {
				t.Errorf("%s: authenticated without a tenant key", name)
			}
			for _, r := range []*http.Request{
				withHeaders(t, "POST", ts.URL+"/v1/jobs", h, body),
				withHeaders(t, "GET", ts.URL+"/v1/fleet", h, nil),
			} {
				resp, err := http.DefaultClient.Do(r)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusUnauthorized {
					t.Errorf("%s: %s %s status %d, want 401", name, r.Method, r.URL.Path, resp.StatusCode)
				}
			}
		}

		// A real tenant key with forged fleet headers stays that tenant.
		h := map[string]string{"Authorization": "Bearer k-acme", fleetForwardedHeader: "b", fleetTenantHeader: "beta"}
		req := withHeaders(t, "POST", ts.URL+"/v1/jobs", h, body)
		if s.isFleetReq(req) {
			t.Error("tenant key with forged fleet headers: treated as a fleet request")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var v View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || v.Tenant != "acme" {
			t.Errorf("forged submit: status %d tenant %q, want 202 as acme", resp.StatusCode, v.Tenant)
		}
		snap := reg.Snapshot()
		if n, _ := snap.Counter("serve_tenant_acme_admitted_total"); n != 1 {
			t.Errorf("serve_tenant_acme_admitted_total = %d, want 1", n)
		}
		if n, _ := snap.Counter("serve_tenant_beta_admitted_total"); n != 0 {
			t.Errorf("serve_tenant_beta_admitted_total = %d, want 0", n)
		}
		if n := out.n.Load(); n != 0 {
			t.Errorf("a fleet of one made %d outbound requests", n)
		}
	})
}
