// Package obs is the observability layer of the simulator: a
// dependency-free metrics and tracing subsystem that turns the paper's
// Section 5.2 resilience argument — a system stays inside spec only while
// it is continuously monitored — back onto the simulator itself. The hot
// engines (linalg factor/solve, circuit Newton iteration, variation
// Monte-Carlo trials, aging mechanism steps, emc sweeps) publish counters,
// gauges and latency histograms into a Registry; consumers read them as a
// JSON Snapshot, as Prometheus text over HTTP, or through a periodic
// progress logger built on the Sink interface.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every instrument is nil-receiver safe, so
//     an un-wired package pays one nil check per event — no allocations,
//     no atomics, no time.Now() calls. The solver hot path keeps its
//     0-alloc guarantee with metrics off (and on: instruments never
//     allocate after construction).
//  2. Cheap under heavy concurrency. Counters and gauges are single
//     atomics; histograms stripe their state to spread cache-line
//     contention. Hot loops do not touch shared memory at all: a solver
//     workspace, a circuit or a Monte-Carlo trial worker stages its
//     counts in plain fields and its latencies in a HistBuf it owns,
//     timed with the monotonic-only Mono clock, and flushes them with
//     one atomic per touched field when its call or its worker ends.
//  3. Deterministic simulation results. Instruments observe execution,
//     never influence it: no instrument feeds back into any solve.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// unusable; obtain counters from a Registry. A nil *Counter is a valid
// no-op instrument — the disabled fast path.
type Counter struct {
	name, unit, help string
	v                atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n < 0 is a programming error; counters only go up). Adding
// zero touches nothing, so flushing an idle staging counter is free.
func (c *Counter) Add(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the metric name ("" on nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is an atomic float64 instrument for last-observed values (queue
// depths, knob settings, progress fractions). Nil gauges are no-ops.
type Gauge struct {
	name, unit, help string
	bits             atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds d to the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Name returns the metric name ("" on nil).
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Registry owns a namespace of instruments. Get-or-create accessors are
// idempotent: asking twice for the same name returns the same instrument,
// so independent packages can share one registry without coordination.
// A nil *Registry hands out nil instruments, which makes wiring code
// unconditional: pkg.SetMetrics(nil) disables instrumentation.
type Registry struct {
	mu     sync.Mutex
	order  []string // registration order for stable snapshots
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Unit and
// help are recorded on creation and ignored afterwards. Registering the
// same name as a different instrument type panics — that is a wiring bug.
func (r *Registry) Counter(name, unit, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		return c
	}
	r.checkFreeLocked(name, "counter")
	c := &Counter{name: name, unit: unit, help: help}
	r.counts[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, unit, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFreeLocked(name, "gauge")
	g := &Gauge{name: name, unit: unit, help: help}
	r.gauges[name] = g
	r.order = append(r.order, name)
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (bounds must be strictly increasing; nil
// selects TimeBuckets, the right default for latency-in-seconds metrics).
func (r *Registry) Histogram(name, unit, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFreeLocked(name, "histogram")
	h := newHistogram(name, unit, help, bounds)
	r.hists[name] = h
	r.order = append(r.order, name)
	return h
}

func (r *Registry) checkFreeLocked(name, kind string) {
	if _, ok := r.counts[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a counter, requested as %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a gauge, requested as %s", name, kind))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a histogram, requested as %s", name, kind))
	}
}

// names returns all metric names in registration order.
func (r *Registry) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// sortedNames returns all metric names sorted — the order Prometheus
// exposition and JSON snapshots use.
func (r *Registry) sortedNames() []string {
	out := r.names()
	sort.Strings(out)
	return out
}
