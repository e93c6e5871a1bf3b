package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/jobspec"
	"repro/internal/store"
)

// Fleet federation: N relsim processes acting as one service. Each node
// owns the jobs it admits (node-prefixed IDs), answers reads for any
// fleet job by forwarding to the owner, places campaign shards on the
// least-loaded healthy node, enforces tenant max_running against the
// whole fleet's running count, and — when a peer with a reachable data
// dir stays dead past the takeover threshold — adopts the peer's
// unfinished jobs by replaying its journal checkpoints, so a campaign
// survives the death of the node that was running it. A server started
// without a fleet config is a fleet of one: no peers, no key, no prober,
// and the same placement and forwarding code degenerates to "here".

// Fleet request headers.
const (
	// fleetForwardedHeader is the hop guard: a node answering a forwarded
	// request never forwards it again, so a job unknown to the whole
	// fleet costs exactly one extra hop, not a loop.
	fleetForwardedHeader = "X-Relsim-Forwarded"
	// fleetTenantHeader carries the tenant a fleet-key request acts for:
	// node-to-node calls authenticate with the shared fleet key and scope
	// themselves to the originating tenant with this header.
	fleetTenantHeader = "X-Relsim-Tenant"
)

// fleetLane is the scheduling lane of fleet-internal shard sub-jobs. It
// is exempt from tenant quotas on purpose: a shard's parent campaign
// already consumed its tenant's max_running slot on the dispatching
// node, and attributing the shard to the tenant again would let a
// fleet-wide cap deadlock a campaign against its own shards.
const fleetLane = "_fleet"

// FleetNode is one node of the static fleet table.
type FleetNode struct {
	// ID names the node; it prefixes the node's job IDs (<id>-job-NNNNNN),
	// so owners are resolvable from an ID alone.
	ID string `json:"id"`
	// URL is the node's base URL (e.g. "http://host:9090").
	URL string `json:"url"`
	// DataDir is the node's store directory as visible from the other
	// nodes (shared filesystem or handed-off volume). Empty disables
	// failover adoption for this node: peers can detect it dead but have
	// no journal to adopt from.
	DataDir string `json:"data_dir,omitempty"`
}

// FleetConfig is the -fleet fleet.json document: the static node table
// plus the shared node-to-node credential and the health/failover
// knobs. Every node of a fleet loads the same file and names itself
// via Self.
type FleetConfig struct {
	// Self is the ID of the node loading the config.
	Self string `json:"self"`
	// Key is the shared fleet API key node-to-node requests authenticate
	// with (probes, shard dispatch, forwarding). It is a server-to-server
	// credential: combined with the X-Relsim-Tenant header it acts for
	// any tenant, so it must not be handed to clients.
	Key string `json:"key"`
	// Nodes is the full fleet table, including the node itself.
	Nodes []FleetNode `json:"nodes"`
	// ProbeEvery paces the health prober (default 1s).
	ProbeEvery jobspec.Duration `json:"probe_every,omitempty"`
	// QuarantineMax caps the exponential backoff between probes of an
	// unhealthy node (default 30s).
	QuarantineMax jobspec.Duration `json:"quarantine_max,omitempty"`
	// TakeoverAfter is the number of consecutive probe failures after
	// which the lowest-ID healthy node adopts the dead node's unfinished
	// jobs from its DataDir (default 5; negative disables takeover).
	TakeoverAfter int `json:"takeover_after,omitempty"`
}

func (c *FleetConfig) applyDefaults() {
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = jobspec.Duration(time.Second)
	}
	if c.QuarantineMax <= 0 {
		c.QuarantineMax = jobspec.Duration(30 * time.Second)
	}
	if c.TakeoverAfter == 0 {
		c.TakeoverAfter = 5
	}
}

func (c *FleetConfig) validate() error {
	if c.Key == "" {
		return errors.New("serve: fleet config has no key")
	}
	if len(c.Nodes) == 0 {
		return errors.New("serve: fleet config lists no nodes")
	}
	ids := map[string]bool{}
	urls := map[string]bool{}
	self := false
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if n.ID == "" {
			return errors.New("serve: fleet node with empty id")
		}
		// "-job-" marks where the owner prefix of a job ID ends, so an id
		// must neither contain it nor end in "-job" (x-job + -job-000007
		// would resolve to owner "x").
		if strings.ContainsAny(n.ID, " \t\n/") || strings.Contains(n.ID, "-job-") || strings.HasSuffix(n.ID, "-job") {
			return fmt.Errorf("serve: fleet node id %q is not usable as a job-ID prefix", n.ID)
		}
		if n.URL == "" {
			return fmt.Errorf("serve: fleet node %s has no url", n.ID)
		}
		n.URL = strings.TrimRight(n.URL, "/")
		if ids[n.ID] {
			return fmt.Errorf("serve: duplicate fleet node id %q", n.ID)
		}
		if urls[n.URL] {
			return fmt.Errorf("serve: duplicate fleet node url %q", n.URL)
		}
		ids[n.ID] = true
		urls[n.URL] = true
		if n.ID == c.Self {
			self = true
		}
	}
	if !self {
		return fmt.Errorf("serve: fleet self %q is not in the node table", c.Self)
	}
	return nil
}

// LoadFleet reads, defaults and validates a fleet.json.
func LoadFleet(path string) (*FleetConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: fleet file: %w", err)
	}
	c := new(FleetConfig)
	if err := json.Unmarshal(b, c); err != nil {
		return nil, fmt.Errorf("serve: fleet file %s: %w", path, err)
	}
	c.applyDefaults()
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return c, nil
}

// fleetLoad is one tenant's load on one node, as exchanged by probes.
type fleetLoad struct {
	Running int `json:"running"`
	Queued  int `json:"queued"`
}

// fleetPeer is the prober's view of one other node.
type fleetPeer struct {
	node    FleetNode
	healthy bool
	// fails counts consecutive probe failures; backoff and next implement
	// the exponential quarantine (a dead node is probed ever more rarely,
	// capped at QuarantineMax, instead of being hammered every tick).
	fails   int
	backoff time.Duration
	next    time.Time
	// Last reported load, cleared on failure so a dead node stops
	// counting against fleet-wide quotas and shard placement.
	queueDepth int
	inflight   int
	loads      map[string]fleetLoad
	// adopting latches once this node has taken (or is taking) over the
	// peer's jobs for the current outage; reset when the peer recovers.
	adopting bool
}

// fleetState is the server's runtime fleet view: the validated config,
// the resolved self entry, and the probed peer table.
type fleetState struct {
	cfg  FleetConfig
	self FleetNode

	mu    sync.Mutex
	peers map[string]*fleetPeer
}

func newFleetState(cfg *FleetConfig) *fleetState {
	f := &fleetState{cfg: *cfg, peers: map[string]*fleetPeer{}}
	for _, n := range cfg.Nodes {
		if n.ID == cfg.Self {
			f.self = n
			continue
		}
		f.peers[n.ID] = &fleetPeer{node: n, backoff: time.Duration(cfg.ProbeEvery)}
	}
	return f
}

// peerIDs returns the peer ids sorted, for deterministic iteration.
func (f *fleetState) peerIDs() []string {
	ids := make([]string, 0, len(f.peers))
	for id := range f.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// due returns the nodes whose next probe is due at now.
func (f *fleetState) due(now time.Time) []FleetNode {
	f.mu.Lock()
	defer f.mu.Unlock()
	var nodes []FleetNode
	for _, id := range f.peerIDs() {
		if p := f.peers[id]; !now.Before(p.next) {
			nodes = append(nodes, p.node)
		}
	}
	return nodes
}

// recordSuccess folds a successful probe into the peer table.
func (f *fleetState) recordSuccess(id string, st fleetStatus, now time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.peers[id]
	if p == nil {
		return
	}
	p.healthy = true
	p.fails = 0
	p.backoff = time.Duration(f.cfg.ProbeEvery)
	p.next = now // probe again on the regular tick
	p.queueDepth = st.QueueDepth
	p.inflight = st.Inflight
	p.loads = st.Tenants
	p.adopting = false
}

// recordFailure folds a failed probe into the peer table: the node goes
// unhealthy, its reported load is cleared (it is not running anything
// we should count), and its next probe backs off exponentially. It
// returns whether this node should now adopt the peer's jobs: the
// failure streak crossed TakeoverAfter, the peer published a DataDir,
// no adoption is already underway, and this node is the fleet's
// designated adopter (lowest ID among the live ones — one survivor
// adopts, not all of them).
func (f *fleetState) recordFailure(id string, now time.Time) (adopt bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.peers[id]
	if p == nil {
		return false
	}
	p.healthy = false
	p.fails++
	p.queueDepth, p.inflight, p.loads = 0, 0, nil
	p.backoff *= 2
	if max := time.Duration(f.cfg.QuarantineMax); p.backoff > max {
		p.backoff = max
	}
	if min := time.Duration(f.cfg.ProbeEvery); p.backoff < min {
		p.backoff = min
	}
	p.next = now.Add(p.backoff)
	if f.cfg.TakeoverAfter < 0 || p.fails < f.cfg.TakeoverAfter ||
		p.adopting || p.node.DataDir == "" || !f.isAdopterLocked() {
		return false
	}
	p.adopting = true
	return true
}

// abortAdoption un-latches a failed takeover so the next probe round
// retries it.
func (f *fleetState) abortAdoption(id string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p := f.peers[id]; p != nil {
		p.adopting = false
	}
}

// isAdopterLocked reports whether this node is the fleet's designated
// adopter: the lexicographically smallest ID among itself and the
// currently-healthy peers.
func (f *fleetState) isAdopterLocked() bool {
	for id, p := range f.peers {
		if p.healthy && id < f.self.ID {
			return false
		}
	}
	return true
}

// healthyCount returns how many fleet nodes are currently healthy,
// counting this one.
func (f *fleetState) healthyCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 1
	for _, p := range f.peers {
		if p.healthy {
			n++
		}
	}
	return n
}

// runningFor sums the running jobs the healthy peers report for a
// tenant — the remote half of fleet-wide max_running. Unreachable peers
// count zero: quota enforcement degrades to per-node rather than
// wedging admission on stale data.
func (f *fleetState) runningFor(tenant string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, p := range f.peers {
		if p.healthy {
			n += p.loads[tenant].Running
		}
	}
	return n
}

// leastLoaded picks the node shard should run on: among this node (at
// localLoad) and the healthy peers, the smallest queued+inflight
// backlog wins; ties are split round-robin by shard index so a
// uniformly-loaded fleet spreads shards evenly. An empty URL means "run
// it here".
func (f *fleetState) leastLoaded(shard, localLoad int) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	type cand struct {
		url  string
		load int
	}
	cands := []cand{{url: "", load: localLoad}}
	for _, id := range f.peerIDs() {
		if p := f.peers[id]; p.healthy {
			cands = append(cands, cand{url: p.node.URL, load: p.queueDepth + p.inflight})
		}
	}
	min := cands[0].load
	for _, c := range cands[1:] {
		if c.load < min {
			min = c.load
		}
	}
	best := cands[:0]
	for _, c := range cands {
		if c.load == min {
			best = append(best, c)
		}
	}
	return best[shard%len(best)].url
}

// forwardTargets orders the nodes a request for a job with the given
// owner prefix should be tried against: the owner first (even when
// quarantined — one direct attempt is cheap and authoritative), then
// the healthy survivors, who may have adopted the job.
func (f *fleetState) forwardTargets(owner string) []FleetNode {
	f.mu.Lock()
	defer f.mu.Unlock()
	var nodes []FleetNode
	if p := f.peers[owner]; p != nil {
		nodes = append(nodes, p.node)
	}
	for _, id := range f.peerIDs() {
		if id == owner {
			continue
		}
		if p := f.peers[id]; p.healthy {
			nodes = append(nodes, p.node)
		}
	}
	return nodes
}

// peerViews snapshots the peer table for /v1/fleet.
func (f *fleetState) peerViews() []fleetPeerView {
	f.mu.Lock()
	defer f.mu.Unlock()
	views := make([]fleetPeerView, 0, len(f.peers))
	for _, id := range f.peerIDs() {
		p := f.peers[id]
		views = append(views, fleetPeerView{
			ID: id, URL: p.node.URL, Healthy: p.healthy,
			ConsecFails: p.fails, QueueDepth: p.queueDepth,
			Inflight: p.inflight, Adopted: p.adopting,
		})
	}
	return views
}

// fleetStatus is the GET /v1/fleet document: this node's identity and
// load — what the other nodes' probes consume — plus its view of the
// peers (operator introspection; probes ignore it).
type fleetStatus struct {
	Node       string               `json:"node,omitempty"`
	QueueDepth int                  `json:"queue_depth"`
	Inflight   int                  `json:"inflight"`
	Workers    int                  `json:"workers"`
	Tenants    map[string]fleetLoad `json:"tenants,omitempty"`
	Peers      []fleetPeerView      `json:"peers,omitempty"`
}

// fleetPeerView is one peer row of the /v1/fleet document.
type fleetPeerView struct {
	ID          string `json:"id"`
	URL         string `json:"url"`
	Healthy     bool   `json:"healthy"`
	ConsecFails int    `json:"consec_fails,omitempty"`
	QueueDepth  int    `json:"queue_depth"`
	Inflight    int    `json:"inflight"`
	Adopted     bool   `json:"adopted,omitempty"`
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request, ts *tenantState) {
	st := fleetStatus{
		Node:       s.nodeID,
		QueueDepth: s.queue.depth(),
		Inflight:   int(s.inflight.Load()),
		Workers:    s.cfg.Workers,
		Tenants:    s.queue.tenantLoads(),
	}
	st.Peers = s.fleet.peerViews()
	writeJSON(w, http.StatusOK, st)
}

// ownerFromID resolves the fleet node a job ID belongs to from its
// prefix ("" for unprefixed pre-fleet IDs).
func ownerFromID(id string) string {
	if i := strings.Index(id, "-job-"); i > 0 {
		return id[:i]
	}
	return ""
}

// jobSeq parses the numeric sequence out of a job ID carrying the given
// node prefix; IDs with a different prefix (adopted from another node)
// report ok=false so they never advance this node's ID counter.
func jobSeq(id, prefix string) (int, bool) {
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	var n int
	if _, err := fmt.Sscanf(id[len(prefix):], "job-%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// prober is the fleet health loop: one goroutine per server, probing
// due peers every ProbeEvery until shutdown.
func (s *Server) prober() {
	defer s.wg.Done()
	t := time.NewTicker(time.Duration(s.fleet.cfg.ProbeEvery))
	defer t.Stop()
	for {
		select {
		case <-s.proberStop:
			return
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.probeFleet(time.Now())
		}
	}
}

// probeFleet runs one probe round: every due peer is probed, results
// are folded into the fleet table, takeovers run for peers that crossed
// the threshold, and the scheduler is woken — a peer death may have
// freed fleet-wide quota headroom, a recovery may have changed it.
// Exposed as a method (tests call it directly with a long ProbeEvery)
// so quarantine and failover are deterministic under test.
func (s *Server) probeFleet(now time.Time) {
	f := s.fleet
	for _, node := range f.due(now) {
		s.met.fleetProbes.Inc()
		st, err := s.probePeer(node)
		if err != nil {
			s.met.fleetProbeFails.Inc()
			if f.recordFailure(node.ID, now) {
				if aerr := s.adoptPeerJobs(node); aerr != nil {
					s.storeErr(aerr)
					f.abortAdoption(node.ID)
				}
			}
			continue
		}
		f.recordSuccess(node.ID, st, now)
	}
	s.met.fleetHealthy.Set(float64(f.healthyCount()))
	s.queue.poke()
}

// probePeer fetches one peer's /v1/fleet status.
func (s *Server) probePeer(node FleetNode) (fleetStatus, error) {
	req, err := http.NewRequestWithContext(s.baseCtx, http.MethodGet, node.URL+"/v1/fleet", nil)
	if err != nil {
		return fleetStatus{}, err
	}
	req.Header.Set("Authorization", "Bearer "+s.fleet.cfg.Key)
	resp, err := s.probeClient.Do(req)
	if err != nil {
		return fleetStatus{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxSpecBytes))
	if err != nil {
		return fleetStatus{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return fleetStatus{}, fmt.Errorf("serve: fleet probe of %s answered %d", node.ID, resp.StatusCode)
	}
	var st fleetStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return fleetStatus{}, err
	}
	if st.Node != node.ID {
		return fleetStatus{}, fmt.Errorf("serve: fleet node at %s answered as %q, want %q",
			node.URL, st.Node, node.ID)
	}
	return st, nil
}

// adoptPeerJobs is the failover path: replay the dead peer's journal
// (read-only — the directory stays intact for the owner's own restart)
// and take over every job it had accepted but not finished: queued jobs
// re-run from scratch, interrupted resumable campaigns resume from
// their journaled checkpoints, so the merged result is bit-identical to
// an uninterrupted run. Fleet-internal shard sub-jobs are skipped —
// their dispatching owner's fallback already re-ran them — as are
// non-resumable interrupted jobs, which only their owner can fail
// meaningfully.
func (s *Server) adoptPeerJobs(node FleetNode) error {
	recovered, err := store.ReadJournal(node.DataDir)
	if err != nil {
		return err
	}
	now := time.Now()
	adopted := 0
	for _, r := range recovered {
		if r.Internal {
			continue
		}
		if r.State != store.StateQueued && !resumable(r) {
			continue
		}
		if s.job(r.ID) != nil {
			continue // already adopted in an earlier outage
		}
		j := restoredJob(r, now)
		s.mu.Lock()
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		s.mu.Unlock()
		// Journal the adoption locally — submission under this node's
		// ownership plus the checkpoints that survived — so a restart of
		// this node resumes the adopted campaign too.
		s.persistSubmitted(j, now)
		for _, cp := range r.Checkpoints {
			s.storeErr(s.cfg.Store.JobCheckpoint(j.ID, cp.Chunk, cp.Data, now))
		}
		if len(j.resume) > 0 {
			s.met.resumed.Inc()
		}
		if s.requeue(j, "adopted job") {
			adopted++
		}
	}
	s.met.fleetTakeovers.Add(int64(adopted))
	return nil
}

// forwardJob proxies a request for a job this node does not hold to the
// fleet node that does: the ID's owner first, then the healthy
// survivors (an adopted job lives on whoever took it over). It reports
// whether a response was written; false means no node claimed the job
// and the caller should answer its own 404. Forwarded requests carry
// the hop guard, so the receiving node never forwards again.
func (s *Server) forwardJob(w http.ResponseWriter, r *http.Request, id string, ts *tenantState) bool {
	if r.Header.Get(fleetForwardedHeader) != "" {
		return false
	}
	streaming := strings.HasSuffix(r.URL.Path, "/events")
	for _, node := range s.fleet.forwardTargets(ownerFromID(id)) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, node.URL+r.URL.RequestURI(), nil)
		if err != nil {
			continue
		}
		req.Header.Set("Authorization", "Bearer "+s.fleet.cfg.Key)
		req.Header.Set(fleetForwardedHeader, s.nodeID)
		req.Header.Set(fleetTenantHeader, ts.cfg.ID)
		client := s.probeClient
		if streaming {
			// Event streams outlive any sane fixed timeout; the proxied
			// request dies with the client's own context instead.
			client = s.streamClient
		}
		resp, err := client.Do(req)
		if err != nil {
			continue // node unreachable; try the next candidate
		}
		if resp.StatusCode == http.StatusNotFound {
			io.Copy(io.Discard, io.LimitReader(resp.Body, maxSpecBytes))
			resp.Body.Close()
			continue // not there either
		}
		// Counted before the relay, so a client that reads /metrics as
		// soon as its forwarded answer arrives sees the forward.
		s.met.fleetForwards.Inc()
		relayResponse(w, resp)
		resp.Body.Close()
		return true
	}
	return false
}

// relayResponse copies a proxied node's response through, flushing per
// chunk so NDJSON event streams arrive live.
func relayResponse(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	rc := http.NewResponseController(w)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			_ = rc.Flush()
		}
		if rerr != nil {
			return
		}
	}
}

// isFleetReq reports whether the request authenticated with the shared
// fleet key — a node-to-node call (shard dispatch, probe, forward). The
// blank key of a fleet of one authenticates nothing.
func (s *Server) isFleetReq(r *http.Request) bool {
	key := requestKey(r)
	return key != "" && key == s.fleet.cfg.Key
}
