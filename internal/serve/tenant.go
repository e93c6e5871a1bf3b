package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/jobspec"
)

// DefaultTenant is the implicit tenant every request belongs to when the
// server runs without a tenant keyfile: weight 1, no quotas, no key. A
// keyfile server keeps it too (unless the keyfile defines its own), for
// fleet calls that act for no named tenant.
const DefaultTenant = "default"

// Priority classes. Within one tenant the scheduler always serves
// interactive jobs before batch jobs; across tenants the weighted
// fair-share holds regardless of class, so a tenant cannot jump the
// inter-tenant queue by marking everything interactive.
const (
	ClassInteractive = "interactive"
	ClassBatch       = "batch"
)

// validClass reports whether c names a priority class ("" is resolved to
// a default by the caller before scheduling).
func validClass(c string) bool { return c == ClassInteractive || c == ClassBatch }

// TenantConfig is one tenant's entry in the -tenants keyfile: identity,
// API key, fair-share weight and admission quotas. The JSON form is the
// keyfile wire format:
//
//	{"tenants": [
//	  {"id": "acme", "key": "k-acme", "weight": 3,
//	   "max_queued": 64, "max_running": 4,
//	   "trial_rate": 5000, "trial_burst": 20000}
//	]}
type TenantConfig struct {
	// ID names the tenant (metrics label, journal field, job owner).
	ID string `json:"id"`
	// Key is the static API key presented as "Authorization: Bearer
	// <key>" or "X-API-Key: <key>".
	Key string `json:"key"`
	// Weight is the fair-share weight (default 1). Under saturation two
	// tenants with weights 3:1 are scheduled trials in a 3:1 ratio.
	Weight float64 `json:"weight,omitempty"`
	// MaxQueued bounds the tenant's accepted-but-not-running jobs
	// (0 = bounded only by the global queue). Beyond it submissions are
	// rejected 429 with a Retry-After derived from the tenant's own
	// backlog.
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxRunning bounds the tenant's concurrently executing jobs
	// (0 = bounded only by the worker pool). Jobs beyond it stay queued.
	MaxRunning int `json:"max_running,omitempty"`
	// TrialRate is the tenant's admission budget in estimated trials per
	// second (0 = unlimited): a token bucket debits each submission by
	// its spec's trial cost, and an empty bucket rejects 429 with the
	// refill time as Retry-After.
	TrialRate float64 `json:"trial_rate,omitempty"`
	// TrialBurst is the bucket capacity (default 10× TrialRate): the
	// largest trial volume admitted in one burst.
	TrialBurst float64 `json:"trial_burst,omitempty"`
}

// applyDefaults normalises a keyfile entry in place.
func (c *TenantConfig) applyDefaults() {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.TrialRate > 0 && c.TrialBurst <= 0 {
		c.TrialBurst = 10 * c.TrialRate
	}
}

// validate rejects unusable keyfile entries.
func (c *TenantConfig) validate() error {
	if c.ID == "" {
		return fmt.Errorf("serve: tenant with empty id")
	}
	if strings.ContainsAny(c.ID, " \t\n") {
		return fmt.Errorf("serve: tenant id %q contains whitespace", c.ID)
	}
	if c.Key == "" {
		return fmt.Errorf("serve: tenant %s has no key", c.ID)
	}
	if c.MaxQueued < 0 || c.MaxRunning < 0 || c.TrialRate < 0 || c.TrialBurst < 0 {
		return fmt.Errorf("serve: tenant %s has a negative quota", c.ID)
	}
	return nil
}

// LoadTenants reads a tenant keyfile ({"tenants": [...]}), defaults and
// validates every entry, and rejects duplicate ids or keys (a shared key
// would make attribution ambiguous).
func LoadTenants(path string) ([]TenantConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: tenants file: %w", err)
	}
	var doc struct {
		Tenants []TenantConfig `json:"tenants"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("serve: tenants file %s: %w", path, err)
	}
	if len(doc.Tenants) == 0 {
		return nil, fmt.Errorf("serve: tenants file %s lists no tenants", path)
	}
	ids := map[string]bool{}
	keys := map[string]bool{}
	for i := range doc.Tenants {
		t := &doc.Tenants[i]
		t.applyDefaults()
		if err := t.validate(); err != nil {
			return nil, err
		}
		if ids[t.ID] {
			return nil, fmt.Errorf("serve: duplicate tenant id %q", t.ID)
		}
		if keys[t.Key] {
			return nil, fmt.Errorf("serve: tenants %s: duplicate key (key of %q)", path, t.ID)
		}
		ids[t.ID] = true
		keys[t.Key] = true
	}
	return doc.Tenants, nil
}

// tenantState is one tenant's runtime admission state: its config plus
// the trial-rate token bucket. Scheduling state (queue, pass, running)
// lives in the fair-share queue; this struct owns only what admission
// consults before a job exists.
type tenantState struct {
	cfg TenantConfig

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// takeTrials debits the token bucket by cost trials at time now. When
// the budget is short it returns ok=false and the whole seconds to wait
// until cost tokens will have accumulated — the 429 Retry-After.
func (t *tenantState) takeTrials(cost float64, now time.Time) (ok bool, waitSec int) {
	if t.cfg.TrialRate <= 0 || cost <= 0 {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.last.IsZero() {
		t.tokens = t.cfg.TrialBurst
	} else {
		t.tokens = math.Min(t.cfg.TrialBurst, t.tokens+t.cfg.TrialRate*now.Sub(t.last).Seconds())
	}
	t.last = now
	if t.tokens >= cost {
		t.tokens -= cost
		return true, 0
	}
	short := cost - t.tokens
	wait := int(math.Ceil(short / t.cfg.TrialRate))
	if wait < 1 {
		wait = 1
	}
	if wait > 300 {
		wait = 300
	}
	return false, wait
}

// refund returns cost tokens to the bucket — the compensation when a
// submission debited its trial cost but was then rejected by a queue
// quota, so a rejected request never burns rate budget.
func (t *tenantState) refund(cost float64) {
	if t.cfg.TrialRate <= 0 || cost <= 0 {
		return
	}
	t.mu.Lock()
	t.tokens = math.Min(t.cfg.TrialBurst, t.tokens+cost)
	t.mu.Unlock()
}

// trialCost estimates the admission cost of a spec in trials — the unit
// the per-tenant rate budget is denominated in. Analyses without a
// Monte-Carlo campaign cost 1: the budget is an anti-flood control, not
// a cycle-exact accountant.
func trialCost(spec *jobspec.Spec) float64 {
	switch spec.Analysis {
	case jobspec.KindMC:
		if spec.MC == nil {
			return 1
		}
		if r := spec.MC.Range; r != nil {
			return float64(r.To - r.From)
		}
		return float64(spec.MC.Trials)
	case jobspec.KindCentering:
		if spec.Centering == nil {
			return 1
		}
		return float64(spec.Centering.Trials) * float64(spec.Centering.MaxIters+1)
	case jobspec.KindSignoff:
		if spec.Signoff == nil {
			return 1
		}
		return float64(spec.Signoff.Trials)
	}
	return 1
}

// tenantSet resolves API keys and ids to runtime tenant state. byID
// always holds DefaultTenant. Without a keyfile the set is open: that
// default tenant is its only member and every request authenticates as
// it.
type tenantSet struct {
	byKey map[string]*tenantState
	byID  map[string]*tenantState
	open  bool
	// fleetKey, when non-empty, is the shared node-to-node fleet
	// credential: it authenticates like a key but scopes itself to the
	// tenant named by the X-Relsim-Tenant header (or the default tenant
	// without one). A fleet of one has none.
	fleetKey string
}

func newTenantSet(cfgs []TenantConfig, fleetKey string) *tenantSet {
	ts := &tenantSet{byKey: map[string]*tenantState{}, byID: map[string]*tenantState{},
		open: len(cfgs) == 0, fleetKey: fleetKey}
	// The keyless default entry comes first, so a keyfile may redefine it.
	for _, c := range append([]TenantConfig{{ID: DefaultTenant}}, cfgs...) {
		c.applyDefaults()
		st := &tenantState{cfg: c}
		ts.byID[c.ID] = st
		if c.Key != "" {
			ts.byKey[c.Key] = st
		}
	}
	return ts
}

// requestKey extracts the API key a request presents ("Authorization:
// Bearer <key>" or "X-API-Key"), empty when none.
func requestKey(r *http.Request) string {
	if key := r.Header.Get("X-API-Key"); key != "" {
		return key
	}
	if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
		return strings.TrimPrefix(auth, "Bearer ")
	}
	return ""
}

// authenticate resolves the request's API key to a tenant. An open set
// (no keyfile) accepts everything as the default tenant. The shared
// fleet key authenticates node-to-node calls and acts for the tenant
// the X-Relsim-Tenant header names, the default tenant without one
// (401 for an unknown one — a peer must not mint tenants this node's
// keyfile does not know).
func (ts *tenantSet) authenticate(r *http.Request) (*tenantState, bool) {
	if ts.open {
		return ts.byID[DefaultTenant], true
	}
	key := requestKey(r)
	if ts.fleetKey != "" && key == ts.fleetKey {
		st, ok := ts.byID[cmp.Or(r.Header.Get(fleetTenantHeader), DefaultTenant)]
		return st, ok
	}
	st, ok := ts.byKey[key]
	return st, ok
}
