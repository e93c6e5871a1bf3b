package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobspec"
	"repro/internal/obs"
)

const inverterDeck = `
* cmos inverter at 90nm
.tech 90nm
.temp 300
VDD vdd 0 DC 1.1
VIN in 0 DC 0.55
MN out in 0 0 NMOS W=1u L=90n
MP out in vdd vdd PMOS W=2u L=90n
.end
`

// newTestServer builds a server on an httptest listener and tears both
// down at cleanup (shutdown first, so streaming handlers end before the
// listener closes).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts
}

// submit POSTs a spec and returns the raw response; the body is decoded
// into view only on 202.
func submit(t *testing.T, ts *httptest.Server, spec *jobspec.Spec) (*http.Response, View) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	resp.Body.Close()
	return resp, v
}

func getJob(t *testing.T, ts *httptest.Server, id string) View {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", id, resp.StatusCode)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitTerminal polls the job until it reaches a terminal state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v := getJob(t, ts, id)
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func mcSpec(trials int) *jobspec.Spec {
	return &jobspec.Spec{
		Analysis: jobspec.KindMC,
		Netlist:  inverterDeck,
		Seed:     1,
		MC:       &jobspec.MCParams{Trials: trials, Node: "out"},
	}
}

// blockingExec returns an executor that signals on started and then holds
// its job until release closes (returning a full result) or the job
// context is cancelled (returning a partial result, the way the real
// engines do under a drain deadline).
func blockingExec(started chan<- string, release <-chan struct{}) ExecFunc {
	return func(ctx context.Context, spec *jobspec.Spec, _ jobspec.Options) (*jobspec.Result, error) {
		started <- string(spec.Analysis)
		select {
		case <-release:
			return &jobspec.Result{Kind: spec.Analysis}, nil
		case <-ctx.Done():
			return &jobspec.Result{Kind: spec.Analysis, Partial: true, Warning: "drained: " + ctx.Err().Error()}, nil
		}
	}
}

func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 4, Workers: 2, DefaultTimeout: time.Minute})
	resp, v := submit(t, ts, &jobspec.Spec{
		Analysis: jobspec.KindOP, Netlist: inverterDeck, Record: []string{"out"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if v.ID == "" || v.Analysis != jobspec.KindOP {
		t.Fatalf("submit view = %+v", v)
	}

	fin := waitTerminal(t, ts, v.ID)
	if fin.State != StateDone {
		t.Fatalf("state = %s (error %q)", fin.State, fin.Error)
	}
	if fin.Spec == nil || fin.Spec.Timeout != jobspec.Duration(time.Minute) {
		t.Errorf("server default timeout not applied: %+v", fin.Spec)
	}
	var res jobspec.Result
	if err := json.Unmarshal(fin.Result, &res); err != nil {
		t.Fatalf("result not decodable: %v", err)
	}
	if res.Kind != jobspec.KindOP || res.OP == nil || len(res.OP.Nodes) != 1 {
		t.Fatalf("result = %+v", res)
	}
	if out := res.OP.Nodes[0].V; out <= 0 || out >= 1.1 {
		t.Errorf("V(out) = %g, want inside the rails", out)
	}

	// The list endpoint shows the job without spec or result payloads.
	resp2, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var list struct {
		Jobs []View `json:"jobs"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID || list.Jobs[0].Spec != nil || list.Jobs[0].Result != nil {
		t.Errorf("list = %+v", list.Jobs)
	}

	// Unknown IDs are 404s on every per-job endpoint.
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/nope"},
		{http.MethodDelete, "/v1/jobs/nope"},
		{http.MethodGet, "/v1/jobs/nope/events"},
	} {
		r, err := http.NewRequest(req.method, ts.URL+req.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", req.method, req.path, resp.StatusCode)
		}
	}
}

// submitEndpoints runs a spec body through both admission endpoints: a
// job is a batch of one, so every rule must answer alike on each.
var submitEndpoints = []struct {
	name, path, decoding string
	wrap                 func(spec string) string
}{
	{"jobs", "/v1/jobs", "decoding spec", func(spec string) string { return spec }},
	{"batches", "/v1/batches", "decoding batch", func(spec string) string { return `{"specs":[` + spec + `]}` }},
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 2, Workers: 1})
	// An empty want expects the endpoint's decode error.
	cases := []struct {
		name, body, want string
	}{
		{"malformed json", "{not json", ""},
		{"unknown field", `{"analysis":"op","netlist":"x","typo_field":1}`, ""},
		{"netlist file refused", `{"analysis":"op","netlist_file":"/etc/passwd"}`, "inline netlists only"},
		{"unknown analysis", `{"analysis":"bogus","netlist":"x"}`, "unknown analysis"},
		{"mc without node", `{"analysis":"mc","netlist":"x"}`, "mc needs a node"},
		// mc.batch is retired: every worker keeps its die for the whole job.
		{"mc batch refused", `{"analysis":"mc","netlist":"x","mc":{"trials":10,"node":"out","batch":32}}`, `unknown field "batch"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, ep := range submitEndpoints {
				t.Run(ep.name, func(t *testing.T) {
					want := tc.want
					if want == "" {
						want = ep.decoding
					}
					var e ErrorBody
					resp := doAs(t, ts, "", "POST", ep.path, []byte(ep.wrap(tc.body)), &e)
					if resp.StatusCode != http.StatusBadRequest || e.Code != ErrInvalidSpec {
						t.Fatalf("status %d code %q, want 400 %q", resp.StatusCode, e.Code, ErrInvalidSpec)
					}
					if !strings.Contains(e.Message, want) {
						t.Errorf("message %q does not mention %q", e.Message, want)
					}
				})
			}
		})
	}

	// A drain refuses a submission the result cache could answer the same
	// way on both endpoints: 503 draining, counted as a rejection.
	t.Run("drain during cache hit", func(t *testing.T) {
		reg := obs.NewRegistry()
		s, ts := newTestServer(t, Config{QueueDepth: 2, Workers: 1, Registry: reg})
		spec, err := json.Marshal(&jobspec.Spec{Analysis: jobspec.KindOP, Netlist: inverterDeck})
		if err != nil {
			t.Fatal(err)
		}
		var v View
		if resp := doAs(t, ts, "", "POST", "/v1/jobs", spec, &v); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first submit: status %d, want 202", resp.StatusCode)
		}
		waitTerminal(t, ts, v.ID)
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, ep := range submitEndpoints {
			before, _ := reg.Snapshot().Counter("serve_jobs_rejected_total")
			var e ErrorBody
			resp := doAs(t, ts, "", "POST", ep.path, []byte(ep.wrap(string(spec))), &e)
			if resp.StatusCode != http.StatusServiceUnavailable || e.Code != ErrDraining {
				t.Errorf("%s: status %d code %q, want 503 %q", ep.name, resp.StatusCode, e.Code, ErrDraining)
			}
			if after, _ := reg.Snapshot().Counter("serve_jobs_rejected_total"); after != before+1 {
				t.Errorf("%s: serve_jobs_rejected_total moved by %d, want 1", ep.name, after-before)
			}
		}
	})
}

func TestEventsStreamOrdering(t *testing.T) {
	const trials = 16
	_, ts := newTestServer(t, Config{QueueDepth: 2, Workers: 1, ProgressEvery: 1})
	resp, v := submit(t, ts, mcSpec(trials))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}

	// The stream ends at the terminal event, so reading to EOF is the
	// whole lifecycle regardless of whether we raced the execution.
	es, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	if ct := es.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("Content-Type = %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(es.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Exact shape: queued, started, one progress per trial in strictly
	// increasing order, then done — with dense sequence numbers.
	if len(events) != trials+3 {
		t.Fatalf("got %d events, want %d: %+v", len(events), trials+3, events)
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d (not dense): %+v", i, ev.Seq, ev)
		}
	}
	if events[0].Type != "queued" || events[1].Type != "started" {
		t.Fatalf("prologue = %+v", events[:2])
	}
	for i := 0; i < trials; i++ {
		ev := events[2+i]
		if ev.Type != "progress" || ev.Stage != "trial" || ev.Done != i+1 || ev.Total != trials {
			t.Fatalf("progress %d = %+v", i, ev)
		}
	}
	if last := events[len(events)-1]; last.Type != "done" {
		t.Fatalf("terminal event = %+v", last)
	}

	// ?from= resumes mid-log: asking for the tail yields only the tail.
	es2, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", ts.URL, v.ID, len(events)-1))
	if err != nil {
		t.Fatal(err)
	}
	defer es2.Body.Close()
	tail, err := io.ReadAll(es2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(tail, []byte("\n")); n != 1 || !bytes.Contains(tail, []byte(`"done"`)) {
		t.Errorf("tail = %q", tail)
	}

	// A malformed ?from= is a 400, not a hung stream.
	es3, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	es3.Body.Close()
	if es3.StatusCode != http.StatusBadRequest {
		t.Errorf("from=-1 status = %d", es3.StatusCode)
	}
}

func TestQueueFullExactRejections(t *testing.T) {
	const (
		workers = 2
		depth   = 3
		burst   = 5 // beyond workers+depth: every one must bounce
	)
	started := make(chan string, workers+depth+burst)
	release := make(chan struct{})
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		QueueDepth: depth, Workers: workers, Registry: reg,
		Execute: blockingExec(started, release),
	})
	// Seed the smoothed job-duration estimate so the Retry-After hint is
	// a deterministic function of the backlog: with avg 8 s jobs, depth 3
	// and 2 workers a rejected client waits ceil((3+1)*8/2) = 16 s.
	s.observeJobDuration(8 * time.Second)

	// Fill the workers first so the queue occupancy is deterministic.
	var accepted []string
	for i := 0; i < workers; i++ {
		resp, v := submit(t, ts, mcSpec(10))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("worker-fill submit %d: status %d", i, resp.StatusCode)
		}
		accepted = append(accepted, v.ID)
	}
	for i := 0; i < workers; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("workers never picked up the first jobs")
		}
	}
	// Now fill the queue to capacity...
	for i := 0; i < depth; i++ {
		resp, v := submit(t, ts, mcSpec(10))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queue-fill submit %d: status %d", i, resp.StatusCode)
		}
		accepted = append(accepted, v.ID)
	}
	// ...and every further submission in the burst must be rejected with
	// backpressure: 503 plus a Retry-After hint.
	for i := 0; i < burst; i++ {
		resp, _ := submit(t, ts, mcSpec(10))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("burst submit %d: status %d, want 503", i, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "16" {
			t.Errorf("Retry-After = %q, want the load-derived 16", got)
		}
	}
	// The hint tracks load: folding a slower job into the estimate
	// (EWMA 0.7*8 + 0.3*16 = 10.4 s) raises the same-backlog hint to
	// ceil(4*10.4/2) = 21.
	s.observeJobDuration(16 * time.Second)
	respSlow, _ := submit(t, ts, mcSpec(10))
	if respSlow.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-EWMA submit: status %d, want 503", respSlow.StatusCode)
	}
	if got := respSlow.Header.Get("Retry-After"); got != "21" {
		t.Errorf("Retry-After after slower jobs = %q, want 21 (> 16: hint must scale with load)", got)
	}

	close(release)
	for _, id := range accepted {
		if v := waitTerminal(t, ts, id); v.State != StateDone {
			t.Errorf("job %s = %s", id, v.State)
		}
	}

	snap := reg.Snapshot()
	if n, _ := snap.Counter("serve_jobs_rejected_total"); n != burst+1 {
		t.Errorf("serve_jobs_rejected_total = %d, want %d", n, burst+1)
	}
	if n, _ := snap.Counter("serve_jobs_submitted_total"); n != workers+depth {
		t.Errorf("serve_jobs_submitted_total = %d, want %d", n, workers+depth)
	}
	if n, _ := snap.Counter("serve_jobs_done_total"); n != workers+depth {
		t.Errorf("serve_jobs_done_total = %d, want %d", n, workers+depth)
	}
	// The per-kind label dimension rode along.
	if n, _ := snap.Counter("serve_jobs_submitted_mc_total"); n != workers+depth {
		t.Errorf("serve_jobs_submitted_mc_total = %d, want %d", n, workers+depth)
	}
}

func TestCancelRunningJobPersistsPartial(t *testing.T) {
	// A real Monte-Carlo job big enough to still be running when the
	// DELETE lands; the first progress event tells us it is mid-flight.
	_, ts := newTestServer(t, Config{QueueDepth: 2, Workers: 1, ProgressEvery: 1})
	resp, v := submit(t, ts, mcSpec(200000))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}

	es, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	sc := bufio.NewScanner(es.Body)
	cancelled := false
	var terminal Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "progress" && !cancelled {
			cancelled = true
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
			if err != nil {
				t.Fatal(err)
			}
			dresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			dresp.Body.Close()
			if dresp.StatusCode != http.StatusOK {
				t.Fatalf("DELETE status = %d", dresp.StatusCode)
			}
		}
		terminal = ev
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !cancelled {
		t.Fatal("job finished before any progress event; enlarge the trial count")
	}
	if terminal.Type != "cancelled" {
		t.Fatalf("stream ended with %+v, want cancelled", terminal)
	}

	fin := waitTerminal(t, ts, v.ID)
	if fin.State != StateCancelled {
		t.Fatalf("state = %s", fin.State)
	}
	if fin.Result == nil {
		t.Fatal("cancelled job persisted no partial result")
	}
	var res jobspec.Result
	if err := json.Unmarshal(fin.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.MC == nil {
		t.Fatalf("result = %+v", res)
	}
	mc := res.MC
	if mc.Cancelled == 0 {
		t.Error("no trials accounted as cancelled")
	}
	if got := int(mc.Stats.Moments.Count) + mc.Failures + mc.NaNs + mc.Cancelled; got != mc.Requested {
		t.Errorf("accounting: %d values + %d failed + %d NaN + %d cancelled != %d requested",
			mc.Stats.Moments.Count, mc.Failures, mc.NaNs, mc.Cancelled, mc.Requested)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{QueueDepth: 2, Workers: 1, Execute: blockingExec(started, release)})

	_, running := submit(t, ts, mcSpec(10))
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first job never started")
	}
	_, queued := submit(t, ts, mcSpec(10))

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var dv View
	if err := json.NewDecoder(dresp.Body).Decode(&dv); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dv.State != StateCancelled {
		t.Fatalf("queued job after DELETE = %s, want cancelled immediately", dv.State)
	}

	close(release)
	if v := waitTerminal(t, ts, running.ID); v.State != StateDone {
		t.Errorf("running job = %s", v.State)
	}
	// The worker must skip the cancelled job, not run it: its state stays
	// cancelled with no started timestamp.
	if v := getJob(t, ts, queued.ID); v.State != StateCancelled || v.Started != nil {
		t.Errorf("cancelled job = %+v", v)
	}
	// Cancelling a terminal job is a no-op, not an error.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.ID, nil)
	dresp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	var dv2 View
	if err := json.NewDecoder(dresp2.Body).Decode(&dv2); err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dv2.State != StateDone {
		t.Errorf("terminal job after DELETE = %s", dv2.State)
	}
}

func TestGracefulDrainPersistsPartialResults(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{}) // never closed: only the drain unblocks jobs
	reg := obs.NewRegistry()
	s := NewServer(Config{QueueDepth: 2, Workers: 1, Registry: reg, Execute: blockingExec(started, release)})
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, running := submit(t, ts, mcSpec(10))
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	_, queued := submit(t, ts, mcSpec(10))

	// Shut down with a budget the blocked job will exhaust.
	errc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		errc <- s.Shutdown(ctx)
	}()

	// Admission closes as soon as the drain begins: poll until the first
	// 503, which must mention draining (not queue pressure).
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"analysis":"op","netlist":"x"}`))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if !strings.Contains(string(b), "draining") {
				t.Fatalf("drain rejection body = %q", b)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("admission never closed")
		}
		time.Sleep(2 * time.Millisecond)
	}

	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Shutdown returned nil despite a blocked job")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned")
	}

	// The running job was cut off by the drain deadline but persisted the
	// partial result its executor returned.
	rv := getJob(t, ts, running.ID)
	if rv.State != StateDone {
		t.Fatalf("drained running job = %s (error %q)", rv.State, rv.Error)
	}
	var res jobspec.Result
	if err := json.Unmarshal(rv.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Partial || !strings.Contains(res.Warning, "drained") {
		t.Errorf("persisted result = %+v, want the executor's partial", res)
	}

	// The job still queued when the budget ran out never ran: cancelled.
	qv := getJob(t, ts, queued.ID)
	if qv.State != StateCancelled || qv.Started != nil {
		t.Errorf("drained queued job = %+v", qv)
	}
	if n, _ := reg.Snapshot().Counter("serve_jobs_cancelled_total"); n != 1 {
		t.Errorf("serve_jobs_cancelled_total = %d, want 1", n)
	}

	// Shutdown is idempotent.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown = %v", err)
	}
}

func TestPanicInExecutorFailsOneJobOnly(t *testing.T) {
	boom := func(ctx context.Context, spec *jobspec.Spec, _ jobspec.Options) (*jobspec.Result, error) {
		if spec.Analysis == jobspec.KindMC {
			panic("pathological spec")
		}
		return &jobspec.Result{Kind: spec.Analysis}, nil
	}
	_, ts := newTestServer(t, Config{QueueDepth: 4, Workers: 1, Execute: boom})

	_, bad := submit(t, ts, mcSpec(10))
	if v := waitTerminal(t, ts, bad.ID); v.State != StateFailed || !strings.Contains(v.Error, "panicked") {
		t.Fatalf("panicking job = %s (error %q)", v.State, v.Error)
	}
	// The server survived: the next job runs to completion on the same
	// worker.
	_, good := submit(t, ts, &jobspec.Spec{Analysis: jobspec.KindOP, Netlist: inverterDeck})
	if v := waitTerminal(t, ts, good.ID); v.State != StateDone {
		t.Errorf("follow-up job = %s", v.State)
	}
}

func TestObservabilityEndpointsOnJobMux(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{QueueDepth: 2, Workers: 1, Registry: reg})
	_, v := submit(t, ts, &jobspec.Spec{Analysis: jobspec.KindOP, Netlist: inverterDeck})
	waitTerminal(t, ts, v.ID)

	for path, want := range map[string]string{
		"/metrics":      "serve_jobs_submitted_total",
		"/metrics.json": "serve_jobs_submitted_op_total",
		"/debug/vars":   "serve_jobs",
		"/healthz":      `"status": "ok"`,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
			continue
		}
		if !strings.Contains(string(b), want) {
			t.Errorf("GET %s: body does not contain %q", path, want)
		}
	}
}
