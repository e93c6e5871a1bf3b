package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/jobspec"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/store"
)

// delta reads the change of the layer registries' instruments over the
// traced pass, summed over the registries: before[i] and after[i] are
// snapshots of the same one.
type delta struct{ before, after []*obs.Snapshot }

func snapshot(regs []*obs.Registry) []*obs.Snapshot {
	s := make([]*obs.Snapshot, len(regs))
	for i, r := range regs {
		s[i] = r.Snapshot()
	}
	return s
}

func (d delta) count(name string) float64 {
	var n float64
	for i := range d.after {
		a, _ := d.after[i].Counter(name)
		b, _ := d.before[i].Counter(name)
		n += float64(a - b)
	}
	return n
}

// hist returns the observation count and sum added to a histogram.
func (d delta) hist(name string) (n, sum float64) {
	for i := range d.after {
		a := d.after[i].Histogram(name)
		if a == nil {
			continue
		}
		n += float64(a.Count)
		sum += a.Sum
		if b := d.before[i].Histogram(name); b != nil {
			n -= float64(b.Count)
			sum -= b.Sum
		}
	}
	return n, sum
}

// meanUS is a seconds histogram's mean observation in microseconds.
func (d delta) meanUS(name string) float64 {
	n, sum := d.hist(name)
	return div(sum*1e6, n)
}

// div is a/b, or 0 when b is 0: a layer the workload never reaches
// reports 0, not NaN.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// covered returns how much of parent's interval its children cover,
// counting overlaps once.
func covered(parent span, children []span) time.Duration {
	var clipped []span
	for _, c := range children {
		if c.Start.Before(parent.Start) {
			c.Start = parent.Start
		}
		if c.End.After(parent.End) {
			c.End = parent.End
		}
		if c.End.After(c.Start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start.Before(clipped[j].Start) })
	var total time.Duration
	var cur span
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.Start.After(cur.End):
			total += cur.dur()
			cur = c
		case c.End.After(cur.End):
			cur.End = c.End
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// spanStats is what the per-layer metrics read off the span tree.
type spanStats struct {
	sum, count map[string]float64 // per span name: total duration (ms) and spans
	// executeSelf is the summed self time (ms) of top-level executes:
	// their span minus what their children cover.
	executeSelf, executeWall, executes float64
	// unattributed is the summed part of job latencies no child of the
	// job's root span covers; latency the summed latencies (ms).
	unattributed, latency float64
	// straggler sums max ÷ median shard duration per sharded campaign.
	straggler, campaigns float64
}

func (s *spanStats) mean(name string) float64 { return div(s.sum[name], s.count[name]) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// attribute builds the span tree and derives self times, the job
// latency share no span covers, and the shard straggler ratio.
func attribute(spans []span) *spanStats {
	st := &spanStats{sum: map[string]float64{}, count: map[string]float64{}}
	byID := make(map[int64]span, len(spans))
	children := make(map[int64][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		st.sum[s.Name] += ms(s.dur())
		st.count[s.Name]++
	}
	for _, s := range spans {
		switch {
		case s.Name == spanJob:
			st.latency += ms(s.dur())
			st.unattributed += ms(s.dur() - covered(s, children[s.ID]))
		case s.Name == spanExecute && byID[s.Parent].Name == spanJob:
			kids := children[s.ID]
			st.executes++
			st.executeWall += ms(s.dur())
			st.executeSelf += ms(s.dur() - covered(s, kids))
			var shards []float64
			for _, k := range kids {
				if k.Name == spanShard {
					shards = append(shards, ms(k.dur()))
				}
			}
			if len(shards) > 1 {
				st.straggler += div(slices.Max(shards), median(shards))
				st.campaigns++
			}
		}
	}
	return st
}

// layerMetrics assembles the per-layer catalogue from the traced pass:
// registry deltas (d), the span tree (st), the direct probes, the store
// replay, and the pass's own counts.
func layerMetrics(d delta, st *spanStats, subjobCachedShare float64, probes map[string]float64, replay replayResult, traced *passResult) map[string]float64 {
	// The registries and spans cover every round of the pass; the runtime
	// usage only the kept ones.
	jobs, keptJobs := float64(traced.ok(false)), float64(traced.ok(true))
	perJob := func(v float64) float64 { return div(v, jobs) }
	m := map[string]float64{
		"serve.admit_ms":          st.mean(spanAdmit),
		"serve.cached_answer_ms":  st.mean(spanCached),
		"serve.queue_wait_ms":     st.mean(spanQueue),
		"serve.deliver_ms":        st.mean(spanDeliver),
		"jobspec.execute_self_ms": div(st.executeSelf, st.executes),

		"store.cache_hit_ratio":       div(d.count("store_cache_hits_total"), d.count("store_cache_hits_total")+d.count("store_cache_misses_total")),
		"store.evictions_per_job":     perJob(d.count("store_evictions_total")),
		"store.compactions":           d.count("store_compactions_total"),
		"store.checkpoint_ms_per_job": perJob(st.sum[spanCkpt]),
		"store.checkpoint_us":         1e3 * st.mean(spanCkpt),
		"store.checkpoints_per_job":   perJob(d.count("store_checkpoints_total")),
		"store.fsyncs_per_job":        perJob(d.count("store_journal_fsyncs_total")),
		"store.appends_per_job":       perJob(d.count("store_journal_appends_total")),
		"store.replay_ms":             replay.ms,
		"store.replay_records":        replay.records,

		"variation.chunks_per_job": perJob(d.count("variation_mc_chunks_total")),

		"circuit.op_us":               d.meanUS("circuit_op_seconds"),
		"circuit.newton_iters_per_op": div(d.count("circuit_newton_iterations_total"), d.count("circuit_op_total")),
		"circuit.warm_share":          div(d.count("circuit_op_warm_total"), d.count("circuit_op_total")),
		"circuit.sparse_share":        div(d.count("circuit_sparse_solves_total"), d.count("circuit_newton_iterations_total")),
		"circuit.fallbacks":           d.count("circuit_sparse_fallbacks_total"),

		"linalg.factor_us":      d.meanUS("linalg_factor_seconds"),
		"linalg.solve_us":       d.meanUS("linalg_solve_seconds"),
		"linalg.factors_per_op": div(d.count("linalg_factor_total"), d.count("circuit_op_total")),

		"serve.subjob_cached_share": subjobCachedShare,
		"aging.steps_per_job":       perJob(d.count("aging_steps_total")),
		"aging.nbti_step_us":        d.meanUS("aging_nbti_step_seconds"),
		"aging.hci_step_us":         d.meanUS("aging_hci_step_seconds"),
		"aging.tddb_step_us":        d.meanUS("aging_tddb_step_seconds"),

		"serve.shard_ms":              st.mean(spanShard),
		"serve.shard_straggler_ratio": div(st.straggler, st.campaigns),
		"serve.shard_fallbacks":       d.count("serve_shard_fallbacks_total"),

		"runtime.gc_cycles_per_job":   div(float64(traced.use.gcCycles), keptJobs),
		"runtime.gc_pause_ms_per_job": div(ms(traced.use.gcPause), keptJobs),

		"trace.unattributed_share": div(st.unattributed, st.latency),
	}
	for _, node := range []string{"corners", "mc", "age", wearoutNode} {
		m["jobspec.subjob_ms."+node] = st.mean(spanSubjob + node)
	}
	dispatched := d.count("serve_shards_dispatched_total")
	m["serve.shards_remote_share"] = div(dispatched,
		dispatched+d.count("serve_shards_placed_local_total")+d.count("serve_shard_fallbacks_total"))

	// Trial time is wall time per trial, preemption included, so Σ trial
	// time ÷ (campaign workers × execute wall) is the share of the
	// campaign's worker slots spent in trials; the rest is chunk-barrier
	// idle and per-job work outside the trial loop.
	trials, trialSec := d.hist("variation_trial_seconds")
	_, opSec := d.hist("circuit_op_seconds")
	m["variation.trial_us"] = div(trialSec*1e6, trials)
	m["variation.trial_self_us"] = max(0, div((trialSec-opSec)*1e6, trials))
	m["variation.worker_busy_share"] = div(trialSec*1e3, float64(runtime.GOMAXPROCS(0))*st.executeWall)
	for k, v := range probes {
		m[k] = v
	}
	return m
}

// probeLayers times layer entry points directly on the workload's own
// inputs: netlist parsing of its deck, the admission-path decode +
// ApplyDefaults + Validate of its spec body, and CanonicalHash.
func probeLayers(w *workload, seed uint64) (map[string]float64, error) {
	spec := w.spec(jobSeed(seed, 0))
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	var probeErr error
	decoded := new(jobspec.Spec)
	out := map[string]float64{
		"netlist.parse_us": timeUS(func() {
			if _, err := netlist.Parse(spec.Netlist); err != nil {
				probeErr = err
			}
		}),
		"jobspec.decode_validate_us": timeUS(func() {
			s := new(jobspec.Spec)
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(s); err != nil {
				probeErr = err
				return
			}
			s.ApplyDefaults()
			if err := s.Validate(); err != nil {
				probeErr = err
			}
			decoded = s
		}),
	}
	out["jobspec.hash_us"] = timeUS(func() { _ = decoded.CanonicalHash() })
	return out, probeErr
}

// timeUS returns f's mean duration in microseconds over repeated calls
// (at least 5, and at least 20 ms in total).
func timeUS(f func()) float64 {
	n := 0
	start := time.Now()
	for n < 5 || time.Since(start) < 20*time.Millisecond {
		f()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
}

// replayResult is the restart cost of the traced pass's data directories.
type replayResult struct {
	ms, records float64
}

// timeReplay re-opens every node's store directory after the pass — what
// a restart would do — and counts the journal records it replayed.
// Summed over nodes.
func timeReplay(sys *system) (replayResult, error) {
	var r replayResult
	for _, n := range sys.nodes {
		// journal.ndjson is the store's journal file: one record per line.
		b, err := os.ReadFile(filepath.Join(n.dir, "journal.ndjson"))
		if err != nil {
			return r, err
		}
		r.records += float64(bytes.Count(b, []byte{'\n'}))
		start := time.Now()
		st, err := store.Open(n.dir, nil, store.Options{})
		r.ms += ms(time.Since(start))
		if err != nil {
			return r, err
		}
		if err := st.Close(); err != nil {
			return r, err
		}
	}
	return r, nil
}
