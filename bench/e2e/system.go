package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/jobspec"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// probeEvery paces the fleet health probes. The server default (1s) is
// sized for real networks; on loopback a faster cadence keeps shard
// placement current and keeps set-up from being one probe tick long.
const probeEvery = 100 * time.Millisecond

// fleetKey is the shared node-to-node credential of the in-process fleet.
const fleetKey = "e2e-fleet-key"

// node is one job server: a durable store on its own directory, the
// server, the loopback HTTP listener it serves on, and the registry of its
// store and server instruments.
type node struct {
	id    string
	url   string
	dir   string
	reg   *obs.Registry
	store *store.Store
	srv   *serve.Server
	http  *http.Server
	// served closes once http.Serve has returned.
	served chan struct{}
}

// system is the server side of one workload run: one node, or a
// two-node fleet, all in this process and driven over real HTTP.
type system struct {
	dir    string
	nodes  []*node
	client *http.Client
}

// startSystem opens a durable store (fsync on) per node in a fresh
// directory, starts a job server per node on a loopback listener with
// nproc workers, and for a fleet waits until every node reports its
// peers healthy. Each node gets its own registry, as each relsim -serve
// process has one: the server reads its in-flight count from it, and
// fleet shard placement compares those counts across nodes. exec (nil:
// the default executor) is the traced pass's span-recording executor.
func startSystem(w *workload, exec serve.ExecFunc) (sys *system, err error) {
	dir, err := os.MkdirTemp("", "e2e-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	sys = &system{
		dir: dir,
		// One connection per client: each client holds at most one request
		// (submit, event stream or result fetch) open at a time.
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true,
		}},
	}
	defer func() {
		if err != nil {
			sys.close()
			os.RemoveAll(dir)
		}
	}()
	var lns []net.Listener
	for i := 0; i < w.nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return sys, err
		}
		lns = append(lns, ln)
	}
	var fleet []serve.FleetNode
	for i, ln := range lns {
		fleet = append(fleet, serve.FleetNode{ID: string(rune('a' + i)), URL: "http://" + ln.Addr().String()})
	}
	for i, ln := range lns {
		n := &node{id: fleet[i].ID, url: fleet[i].URL, dir: filepath.Join(dir, fleet[i].ID),
			reg: obs.NewRegistry(), served: make(chan struct{})}
		st, err := store.Open(n.dir, n.reg, store.Options{})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return sys, err
		}
		n.store = st
		cfg := serve.Config{Workers: nproc, Store: st, Registry: n.reg, Execute: exec}
		if w.nodes > 1 {
			cfg.Fleet = &serve.FleetConfig{Self: n.id, Key: fleetKey, Nodes: fleet,
				ProbeEvery: jobspec.Duration(probeEvery)}
		}
		n.srv = serve.NewServer(cfg)
		n.http = &http.Server{Handler: n.srv}
		go func(ln net.Listener) {
			defer close(n.served)
			_ = n.http.Serve(ln) // returns http.ErrServerClosed on close
		}(ln)
		sys.nodes = append(sys.nodes, n)
	}
	if w.nodes > 1 {
		if err := sys.waitAll("peers healthy", sys.peersHealthy); err != nil {
			return sys, err
		}
	}
	return sys, nil
}

// waitAll polls every node until cond holds for it (10 s at most).
func (s *system) waitAll(what string, cond func(*node) (bool, error)) error {
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range s.nodes {
		for {
			ok, err := cond(n)
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %s: not %s after 10s (last error: %v)", n.id, what, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// peersHealthy reports whether the node's fleet view has every peer
// healthy.
func (s *system) peersHealthy(n *node) (bool, error) {
	var st struct {
		Peers []struct {
			Healthy bool `json:"healthy"`
		} `json:"peers"`
	}
	if err := s.getJSON(context.Background(), n.url+"/v1/fleet", &st); err != nil {
		return false, err
	}
	if len(st.Peers) != len(s.nodes)-1 {
		return false, nil
	}
	for _, p := range st.Peers {
		if !p.Healthy {
			return false, nil
		}
	}
	return true, nil
}

// idle reports whether the node has no queued or executing job. A worker
// counts as executing until it has journaled the job's terminal record,
// which happens after the client already saw the terminal event.
func (s *system) idle(n *node) (bool, error) {
	var h struct {
		Inflight   int `json:"inflight"`
		QueueDepth int `json:"queue_depth"`
	}
	if err := s.getJSON(context.Background(), n.url+"/healthz", &h); err != nil {
		return false, err
	}
	return h.Inflight == 0 && h.QueueDepth == 0, nil
}

// roundTrip sends req and reads the whole answer.
func (s *system) roundTrip(req *http.Request) (int, []byte, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON GETs url and decodes a 200 answer into v.
func (s *system) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	status, b, err := s.roundTrip(req)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s answered %d: %s", url, status, trim(b))
	}
	return json.Unmarshal(b, v)
}

// close stops every node: the job server drains (no job is in flight by
// then), the listener closes and its Serve goroutine is awaited, and the
// store's journal is synced and closed. The directory is kept, so the
// traced pass can time a replay of it.
func (s *system) close() error {
	var errs []error
	for _, n := range s.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := n.srv.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("node %s drain: %w", n.id, err))
		}
		cancel()
	}
	for _, n := range s.nodes {
		n.http.Close()
		<-n.served
		if err := n.store.Close(); err != nil {
			errs = append(errs, fmt.Errorf("node %s store: %w", n.id, err))
		}
	}
	s.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// view is the part of the job API's JSON job view the clients read.
type view struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// submit POSTs one spec body and decodes the answer.
func (s *system) submit(ctx context.Context, n *node, body []byte) (view, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return view{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	status, b, err := s.roundTrip(req)
	if err != nil {
		return view{}, status, err
	}
	if status != http.StatusOK && status != http.StatusAccepted {
		return view{}, status, fmt.Errorf("POST /v1/jobs answered %d: %s", status, trim(b))
	}
	var v view
	if err := json.Unmarshal(b, &v); err != nil {
		return view{}, status, fmt.Errorf("decoding job view: %w", err)
	}
	return v, status, nil
}

// await follows a job's NDJSON event stream to its terminal event and
// returns that event's type and error.
func (s *system) await(ctx context.Context, n *node, id string) (string, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return "", "", err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return "", "", fmt.Errorf("GET events answered %d: %s", resp.StatusCode, trim(b))
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev struct {
			Type  string `json:"type"`
			Error string `json:"error"`
		}
		if err := dec.Decode(&ev); err != nil {
			return "", "", fmt.Errorf("event stream of %s ended without a terminal event: %w", id, err)
		}
		switch ev.Type {
		case "done", "failed", "cancelled":
			// Drain the stream's end so the connection is reused.
			_, _ = io.Copy(io.Discard, resp.Body)
			return ev.Type, ev.Error, nil
		}
	}
}

func trim(b []byte) string {
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}
