package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/jobspec"
	"repro/internal/obs"
)

// runConfig is one workload run inside a child process (or, in the test,
// inside the test binary).
type runConfig struct {
	w       *workload
	seed    uint64
	seconds float64
	trace   bool
	// spans is where a traced run writes its spans ("" = nowhere).
	spans string
	// ready is called once set-up is complete: the server is up, the fleet
	// healthy and the warm-up job terminal.
	ready func()
	// setupOnly stops after set-up.
	setupOnly bool
}

// childReport is what a run child hands its parent.
type childReport struct {
	// SetupS is the run's set-up time as the run itself measured it, from
	// the start of runWorkload to ready; the parent's setup_s also counts
	// process start.
	SetupS    float64            `json:"setup_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runWorkload sets up the workload's system and, unless setupOnly,
// measures it: an untraced pass yields the end-to-end metrics, and a
// traced run splits its time between that pass and a traced pass, which
// adds the per-layer metrics. Sampled results go through the correctness
// gate after the timed passes.
//
// Both passes run the service as relsim -serve does, with the solver
// layers' instruments on (core.EnableMetrics) and a registry per node;
// the traced pass adds only the span-recording executor.
func runWorkload(ctx context.Context, cfg runConfig) (*childReport, error) {
	start := time.Now()
	layers := obs.NewRegistry()
	core.EnableMetrics(layers)
	defer core.EnableMetrics(nil)
	sys, err := startSystem(cfg.w, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer os.RemoveAll(sys.dir)
	if err := warmUp(ctx, sys, cfg.w, cfg.seed); err != nil {
		sys.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep := &childReport{SetupS: time.Since(start).Seconds(), Metrics: map[string]float64{}}
	if cfg.ready != nil {
		cfg.ready()
	}
	if cfg.setupOnly {
		return rep, sys.close()
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	untraced := runPass(ctx, sys, cfg.w, cfg.seed, d, nil)
	if err := sys.close(); err != nil {
		return nil, err
	}
	if untraced.rssErr != nil {
		return nil, untraced.rssErr
	}
	endToEndMetrics(rep.Metrics, cfg.w, untraced)
	passes := []*passResult{untraced}
	if cfg.trace {
		traced, m, err := tracedPass(ctx, cfg, layers, d)
		if err != nil {
			return nil, err
		}
		passes = append(passes, traced)
		m["trace.overhead"] = div(median(traced.rates), median(untraced.rates))
		for k, v := range m {
			rep.Metrics[k] = v
		}
	}
	var samples []sample
	for _, p := range passes {
		rep.Attempted += len(p.records)
		rep.Failed += p.failed
		rep.Errors = append(rep.Errors, p.errors...)
		samples = append(samples, p.samples...)
	}
	mismatches := verify(ctx, cfg.w, samples)
	rep.Failed += len(mismatches)
	rep.Errors = append(rep.Errors, mismatches...)
	if rep.Attempted > 0 {
		rep.Metrics["error_rate"] = float64(rep.Failed) / float64(rep.Attempted)
	}
	return rep, nil
}

// endToEndMetrics derives the user-visible metrics of an untraced pass
// from its kept rounds. CPU and allocations are the whole process's — the
// in-process clients included — per successful submission.
func endToEndMetrics(m map[string]float64, w *workload, p *passResult) {
	var lat []float64
	for _, r := range p.records {
		if r.ok && p.kept[r.round] {
			lat = append(lat, ms(r.latency()))
		}
	}
	sort.Float64s(lat)
	jobs := float64(len(lat))
	m["jobs_per_s"] = median(p.rates)
	m["latency_p50_ms"] = percentile(lat, 0.50)
	m["latency_p90_ms"] = percentile(lat, 0.90)
	// The highest percentile reported is one with at least ten samples
	// beyond it.
	if len(lat) >= 1000 {
		m["latency_p99_ms"] = percentile(lat, 0.99)
	}
	m["latency_samples"] = jobs
	m["cpu_ms_per_job"] = div(ms(p.use.cpu), jobs)
	m["alloc_mb_per_job"] = div(float64(p.use.allocBytes)/1e6, jobs)
	m["peak_rss_mb"] = p.peakRSS
	m["retaken_rounds"] = float64(p.retaken)
	if w.trials > 0 {
		m["trials_per_s"] = m["jobs_per_s"] * float64(w.trials)
	}
}

// tracedPass sets the workload up again with the span-recording executor,
// runs the traced pass, and derives the per-layer metrics from the spans,
// the change of the solver layers' registry (layers) and of every node's
// over the pass, the restart replay of its data directory and the direct
// layer probes.
func tracedPass(ctx context.Context, cfg runConfig, layers *obs.Registry, d time.Duration) (*passResult, map[string]float64, error) {
	probes, err := probeLayers(cfg.w, cfg.seed)
	if err != nil {
		return nil, nil, fmt.Errorf("layer probes: %w", err)
	}
	tr := newTracer()
	sys, err := startSystem(cfg.w, tr.wrap(jobspec.ExecuteOpts))
	if err != nil {
		return nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer os.RemoveAll(sys.dir)
	if err := warmUp(ctx, sys, cfg.w, cfg.seed); err != nil {
		sys.close()
		return nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	// The registry deltas count exactly the pass's jobs only once every
	// worker has journaled its last terminal record.
	if err := sys.waitAll("idle", sys.idle); err != nil {
		sys.close()
		return nil, nil, err
	}
	regs := []*obs.Registry{layers}
	for _, n := range sys.nodes {
		regs = append(regs, n.reg)
	}
	tr.reset()
	before := snapshot(regs)
	traced := runPass(ctx, sys, cfg.w, cfg.seed, d, tr)
	if err := sys.waitAll("idle", sys.idle); err != nil {
		sys.close()
		return nil, nil, err
	}
	after := snapshot(regs)
	if err := sys.close(); err != nil {
		return nil, nil, err
	}
	replay, err := timeReplay(sys)
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	spans, subjobCachedShare := tr.snapshot()
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, spans); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return traced, layerMetrics(delta{before, after}, attribute(spans), subjobCachedShare, probes, replay, traced), nil
}

// defaultSpansPath is where a traced run writes its spans unless -spans
// says otherwise: under the git-ignored build directory of the working
// directory.
func defaultSpansPath(w string) string {
	return filepath.Join(".bench_build", "spans", w+".jsonl")
}
