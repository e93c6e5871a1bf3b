package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobspec"
	"repro/internal/obs"
)

// lineStream is a minimal streaming ResponseWriter: it counts NDJSON
// lines and keeps only the last one, so a thousand concurrent
// subscribers do not hold a thousand full copies of the event log. It
// deliberately does not implement write deadlines — the handler treats
// that as "not a socket" and streams without the slow-reader guard.
type lineStream struct {
	buf   []byte
	lines int
	last  string
}

func (w *lineStream) Header() http.Header { return http.Header{} }
func (w *lineStream) WriteHeader(int)     {}
func (w *lineStream) Flush()              {}
func (w *lineStream) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		if line := string(w.buf[:i]); line != "" {
			w.lines++
			w.last = line
		}
		w.buf = w.buf[i+1:]
	}
}

// TestEventFanoutThousandSubscribers drives 1000 concurrent /events
// streams over one job whose log exceeds the per-iteration batch bound,
// under -race: every subscriber must see the full event sequence with
// exactly one terminal event, the subscriber gauge must return to zero,
// and no handler goroutine may outlive its stream. The thousand run the
// handler in-process (no OS fd pressure — the fan-out's locking is what
// is exercised); a handful more ride real sockets end to end.
func TestEventFanoutThousandSubscribers(t *testing.T) {
	const (
		subscribers = 1000
		sockets     = 8
		progressN   = 600 // > 2 batches of maxEventBatch
	)
	release := make(chan struct{})
	exec := func(ctx context.Context, spec *jobspec.Spec, opts jobspec.Options) (*jobspec.Result, error) {
		for i := 0; i < progressN; i++ {
			opts.OnProgress(jobspec.Progress{Stage: "trial", Done: i + 1, Total: progressN})
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &jobspec.Result{Kind: spec.Analysis}, nil
	}
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{Workers: 1, Registry: reg, Execute: exec})

	baseline := runtime.NumGoroutine()
	_, v := submit(t, ts, mcSpec(2))
	if v.ID == "" {
		t.Fatal("submit failed")
	}
	wantEvents := progressN + 3 // queued + started + progress... + done

	streams := make([]*lineStream, subscribers)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		streams[i] = &lineStream{}
		wg.Add(1)
		go func(w *lineStream) {
			defer wg.Done()
			req := httptest.NewRequest("GET", "/v1/jobs/"+v.ID+"/events", nil)
			s.ServeHTTP(w, req) // returns only when the stream ends
		}(streams[i])
	}
	sockLines := make([]int, sockets)
	sockLast := make([]string, sockets)
	for i := 0; i < sockets; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 64<<10), 64<<10)
			for sc.Scan() {
				if len(sc.Bytes()) > 0 {
					sockLines[i]++
					sockLast[i] = sc.Text()
				}
			}
		}(i)
	}

	// Let everyone attach, then finish the job; every stream must end.
	deadline := time.Now().Add(30 * time.Second)
	for s.met.subscribers.Value() < subscribers+sockets {
		if time.Now().After(deadline) {
			t.Fatalf("only %v subscribers attached after 30s", s.met.subscribers.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, w := range streams {
		if w.lines != wantEvents {
			t.Fatalf("subscriber %d saw %d events, want %d", i, w.lines, wantEvents)
		}
		var ev Event
		if err := json.Unmarshal([]byte(w.last), &ev); err != nil {
			t.Fatalf("subscriber %d last line: %v", i, err)
		}
		if ev.Type != "done" || ev.Seq != wantEvents-1 {
			t.Fatalf("subscriber %d ended with %s/seq %d, want done/seq %d",
				i, ev.Type, ev.Seq, wantEvents-1)
		}
	}
	for i := 0; i < sockets; i++ {
		if sockLines[i] != wantEvents {
			t.Fatalf("socket subscriber %d saw %d events, want %d", i, sockLines[i], wantEvents)
		}
		var ev Event
		if err := json.Unmarshal([]byte(sockLast[i]), &ev); err != nil || ev.Type != "done" {
			t.Fatalf("socket subscriber %d ended with %q (%v), want done", i, sockLast[i], err)
		}
	}

	// All streams closed: gauge back to zero, handler goroutines gone.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if s.met.subscribers.Value() == 0 && runtime.NumGoroutine() <= baseline+20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leak: %v subscribers, %d goroutines (baseline %d)",
				s.met.subscribers.Value(), runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEventSlowReaderDisconnect: a subscriber that stops draining its
// socket is cut off by the write deadline instead of parking the handler
// goroutine forever — the subscriber gauge returns to zero while the job
// is still running, and the job is unaffected.
func TestEventSlowReaderDisconnect(t *testing.T) {
	release := make(chan struct{})
	exec := func(ctx context.Context, spec *jobspec.Spec, opts jobspec.Options) (*jobspec.Result, error) {
		// Emit enough events to outgrow every buffer between server and
		// stalled client; bounded so a failing test cannot eat unbounded
		// memory.
		for i := 0; i < 400000; i++ {
			select {
			case <-release:
				return &jobspec.Result{Kind: spec.Analysis}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
			opts.OnProgress(jobspec.Progress{Stage: "trial", Done: i + 1, Total: 400000})
		}
		<-release
		return &jobspec.Result{Kind: spec.Analysis}, nil
	}
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Workers: 1, Registry: reg, Execute: exec,
		EventWriteTimeout: 200 * time.Millisecond,
	})
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	_, v := submit(t, ts, mcSpec(2))
	if v.ID == "" {
		t.Fatal("submit failed")
	}
	// Open the stream by hand and then never read from the socket.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4 << 10) // shrink the client's window: less to fill
	}
	fmt.Fprintf(conn, "GET /v1/jobs/%s/events HTTP/1.1\r\nHost: x\r\n\r\n", v.ID)

	// The handler attaches, fills the socket buffers, hits the write
	// deadline and disconnects — all while the job keeps running.
	deadline := time.Now().Add(20 * time.Second)
	attached := false
	for {
		n := s.met.subscribers.Value()
		if n >= 1 {
			attached = true
		}
		if attached && n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow reader not disconnected after 20s (subscribers %v, attached %v)", n, attached)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The job is unaffected by its slow consumer.
	if gi := getJob(t, ts, v.ID); gi.State.Terminal() {
		t.Fatalf("job reached %s before release; disconnect should not touch it", gi.State)
	}
	close(release)
	released = true
	waitTerminal(t, ts, v.ID)
}

// TestEventBatchBound: one iteration of the stream loop copies at most
// maxEventBatch events, so a huge backlog is drained in bounded slices
// rather than one full-log copy under the job lock.
func TestEventBatchBound(t *testing.T) {
	j := newJob(mcSpec(1), "h", DefaultTenant, ClassInteractive, time.Now())
	for i := 0; i < 3*maxEventBatch; i++ {
		j.mu.Lock()
		j.appendLocked(Event{Type: "progress", Stage: "trial", Done: i + 1})
		j.mu.Unlock()
	}
	seen, from, iters := 0, 0, 0
	for {
		evs, _, _ := j.eventsSince(from, maxEventBatch)
		if len(evs) == 0 {
			break
		}
		if len(evs) > maxEventBatch {
			t.Fatalf("iteration returned %d events, bound is %d", len(evs), maxEventBatch)
		}
		for k, ev := range evs {
			if ev.Seq != from+k {
				t.Fatalf("gap: event %d has seq %d", from+k, ev.Seq)
			}
		}
		seen += len(evs)
		from += len(evs)
		iters++
	}
	// queued + 3×maxEventBatch progress events, in ceil(total/batch) slices.
	total := 3*maxEventBatch + 1
	if seen != total {
		t.Fatalf("drained %d events, want %d", seen, total)
	}
	if want := (total + maxEventBatch - 1) / maxEventBatch; iters != want {
		t.Fatalf("drained in %d iterations, want %d", iters, want)
	}
}
