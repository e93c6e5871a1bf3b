// Command relsim runs reliability analyses on a SPICE-flavoured netlist —
// one-shot from flags, or as a long-running job server.
//
// Usage:
//
//	relsim -netlist ckt.sp -analysis op
//	relsim -netlist ckt.sp -analysis tran -stop 1e-3 -step 1e-6 -record out
//	relsim -netlist ckt.sp -analysis tran -adaptive -ltetol 1e-3 -record out
//	relsim -netlist ckt.sp -analysis sweep -source VIN -from 0 -to 1.1 -points 23 -record out
//	relsim -netlist ckt.sp -analysis ac -acsource VIN -fstart 1e3 -fstop 1e9 -record out
//	relsim -netlist ckt.sp -analysis age -years 10 -temp 400 -record out
//	relsim -netlist ckt.sp -analysis mc -trials 200 -node out -lo 0.4 -hi 0.8
//	relsim -netlist ckt.sp -analysis mc -trials 100000 -node out -timeout 30s -progress
//	relsim -netlist ckt.sp -analysis mc -trials 100000 -node out -shards 8
//	relsim -netlist ckt.sp -analysis corners -node out -lo 0.4 -hi 0.8
//	relsim -netlist ckt.sp -analysis centering -node out -lo 0.4 -hi 0.8 -trials 96
//	relsim -netlist ckt.sp -analysis signoff -node out -lo 0.4 -hi 0.8 -years 10 -target-fit 1000
//	relsim -serve :8080
//
// Every flag set parses into one versioned internal/jobspec.Spec, and
// both modes execute it through the same jobspec.Execute dispatch — a
// POSTed server job and a flag-driven run are the identical struct.
//
// The age analysis applies NBTI+HCI+TDDB with DC stress extracted from the
// operating point; mc runs Monte-Carlo mismatch on all MOSFETs and reports
// the node-voltage mean, σ and sketch quantiles and the yield against
// [-lo, -hi], the same stdout for any -shards (each worker parses the deck
// once and keeps that die for the whole run); corners
// sweeps the five classic global corners (TT/SS/FF/SF/FS) and, when -lo or
// -hi is given, judges each corner against the spec window and names the
// worst-margin corner.
//
// centering runs greedy design centering: it resizes MOSFET widths
// (-devices restricts the set, -size-step is one move's width factor,
// -max-scale the cumulative budget) to maximise Monte-Carlo yield against
// the [-lo, -hi] window, reporting the yield trajectory and final sizing.
//
// signoff chains the whole reliability flow into one verdict: the corner
// sweep picks the worst corner, a Monte-Carlo campaign at that corner
// measures parametric yield, the aging trajectory and an EM/TDDB wear-out
// roll-up bound the mission (-years, -temp), and the composite report —
// yield %, σ-margin, FIT rate vs -target-fit, MTBF, failure Pareto —
// prints with a PASS/FAIL verdict (see docs/REPORT_SCHEMA.md).
//
// -timeout bounds the wall clock of the mc and age analyses: on expiry
// the completed portion of the run is reported with explicit cancelled
// counts instead of being discarded.
//
// Server mode: -serve :8080 starts the internal/serve job service —
// POST /v1/jobs submits a spec, GET /v1/jobs/{id} polls it,
// GET /v1/jobs/{id}/events streams NDJSON progress, DELETE cancels, and
// the same listener serves /metrics, /metrics.json, /debug/vars and
// /healthz, so no separate -metrics-addr is needed. -queue bounds the
// job queue (excess submissions get 503 + Retry-After), -workers sizes
// the pool, -timeout becomes the default per-job budget, and SIGINT/
// SIGTERM trigger a graceful drain bounded by -drain in which running
// jobs persist partial results:
//
//	relsim -serve :8080 -queue 64 -workers 8 -timeout 5m -drain 30s
//	curl -s localhost:8080/v1/jobs -d '{"analysis":"mc","netlist":"...","mc":{"trials":1000,"node":"out"}}'
//
// Result cache and durability: resubmitting a byte-equivalent spec
// (after defaulting) returns a completed job immediately from the
// spec-keyed result cache; a spec can opt out with "no_cache": true.
// -data-dir makes the jobs and the cache survive restarts: it journals
// job lifecycles and snapshots terminal results, so a restarted server
// serves previously completed results without recomputation and re-runs
// jobs that were still queued. Running Monte-Carlo campaigns are
// checkpointed chunk by chunk: after a crash the restarted server
// resumes them from the last journaled checkpoint, re-running at most
// the chunk that was in flight, instead of failing them; interrupted
// jobs of other kinds still fail with a structured interrupted error.
// -keep-jobs / -keep-age bound the retained terminal jobs in memory and
// on disk (the journal is compacted as evictions accumulate; a resumable
// campaign's checkpoints are never evicted or compacted away):
//
//	relsim -serve :8080 -data-dir /var/lib/relsim -keep-jobs 512 -keep-age 24h
//
// Sharding: a spec with "mc": {"shards": k} splits its campaign into k
// chunk-aligned trial-range shards, scatter-gathered into one result
// with bit-identical mean/σ/yield (quantiles carry a small documented
// sketch error). Shard progress streams on the events endpoint as
// NDJSON {"stage":"shard"} samples. A lone server runs every shard
// itself; under -fleet the shards are placed on the least-loaded healthy
// node over the same /v1/jobs API, and a failed dispatch falls back to
// local execution.
//
// Fleet mode: -fleet fleet.json federates several relsim servers into
// one service. The config names every node (id, base URL, data dir) and
// a shared fleet key; each node prefixes its job IDs with its own id,
// forwards GET/DELETE /v1/jobs/{id} and the events stream to the owning
// node, places campaign shards on the healthiest least-loaded node
// (dead peers are quarantined with exponential backoff and probed back
// in), enforces tenant max_running quotas fleet-wide, and — when a peer
// stays dead past the takeover threshold and its data_dir is reachable —
// adopts that peer's interrupted campaigns by replaying its journal and
// resuming from the last merged chunk checkpoint:
//
//	relsim -serve :8080 -data-dir /srv/relsim/a -tenants keys.json -fleet fleet.json
//
// Observability: -progress streams one instrument snapshot line per second
// to stderr (trial count and latency quantiles, Newton iterations, aging
// checkpoints), and -metrics-addr serves the full instrument registry over
// HTTP while the analysis runs:
//
//	relsim -netlist ckt.sp -analysis mc -trials 100000 -node out -progress
//	relsim -netlist ckt.sp -analysis mc -trials 100000 -node out -metrics-addr :9090 &
//	curl localhost:9090/metrics        # Prometheus text format
//	curl localhost:9090/metrics.json   # JSON snapshot
//	curl localhost:9090/debug/vars     # expvar
//
// Analysis results (tables, CSV) go to stdout; every banner,
// progress line and accounting diagnostic goes to stderr, so piped output
// stays machine-readable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/jobspec"
	"repro/internal/netlist"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("relsim: ")
	var (
		netFile  = flag.String("netlist", "", "netlist file (required in one-shot mode)")
		analysis = flag.String("analysis", "op", "op | tran | sweep | ac | age | mc | corners | centering | signoff")
		stop     = flag.Float64("stop", 1e-3, "tran: stop time [s]")
		step     = flag.Float64("step", 1e-6, "tran: time step [s]")
		adaptive = flag.Bool("adaptive", false, "tran: variable step with LTE control")
		ltetol   = flag.Float64("ltetol", 1e-3, "tran: LTE tolerance [V] (adaptive)")
		record   = flag.String("record", "", "comma-separated node list to report")
		source   = flag.String("source", "", "sweep: source element to sweep")
		from     = flag.Float64("from", 0, "sweep: start value")
		to       = flag.Float64("to", 1, "sweep: end value")
		points   = flag.Int("points", 11, "sweep: number of points")
		years    = flag.Float64("years", 10, "age/signoff: mission length [years]")
		temp     = flag.Float64("temp", 350, "age/signoff: junction temperature [K]")
		acFrom   = flag.Float64("fstart", 1e3, "ac: start frequency [Hz]")
		acTo     = flag.Float64("fstop", 1e9, "ac: stop frequency [Hz]")
		acPoints = flag.Int("fpoints", 31, "ac: number of log-spaced points")
		acSource = flag.String("acsource", "", "ac: source to stimulate (ACMag=1)")
		trials   = flag.Int("trials", 200, "mc/centering/signoff: number of Monte-Carlo dies")
		shards   = flag.Int("shards", 0, "mc: split the campaign into this many chunk-aligned trial-range shards (0/1 = unsharded; mean/σ/yield stay bit-identical)")
		node     = flag.String("node", "", "mc/corners/centering/signoff: monitored node")
		lo       = flag.Float64("lo", math.Inf(-1), "mc/corners/centering/signoff: spec lower bound")
		hi       = flag.Float64("hi", math.Inf(1), "mc/corners/centering/signoff: spec upper bound")
		sigmaVT  = flag.Float64("sigma-vt", 0.03, "corners/signoff: 3σ corner VT shift [V]")
		sigmaBe  = flag.Float64("sigma-beta", 0.08, "corners/signoff: 3σ corner β shift (fractional)")
		devices  = flag.String("devices", "", "centering: comma-separated MOSFETs to size; join matched pairs with '+' (M1+M2). default all, individually")
		maxIters = flag.Int("max-iters", 6, "centering: max accepted sizing moves")
		sizeStep = flag.Float64("size-step", 1.25, "centering: width scale factor of one move")
		maxScale = flag.Float64("max-scale", 4, "centering: cumulative width-scale budget per device")
		tgtFIT   = flag.Float64("target-fit", 1000, "signoff: failure-rate budget [failures/1e9 h]")
		seed     = flag.Uint64("seed", 1, "mc/age: RNG seed")
		timeout  = flag.Duration("timeout", 0, "mc/age: wall-clock budget; partial results are reported on expiry (serve: default per-job budget; 0 = none)")
		progress = flag.Bool("progress", false, "print a per-second instrument snapshot line to stderr")
		metrics  = flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/vars on this address (e.g. :9090)")

		serveAddr = flag.String("serve", "", "run as a job server on this address (e.g. :8080) instead of a one-shot analysis")
		queue     = flag.Int("queue", 64, "serve: bounded job-queue depth (backpressure beyond it)")
		workers   = flag.Int("workers", 0, "serve: worker pool size (0 = GOMAXPROCS)")
		drain     = flag.Duration("drain", 30*time.Second, "serve: graceful-shutdown drain budget for running jobs")
		dataDir   = flag.String("data-dir", "", "serve: journal jobs and results here so they and the result cache survive restarts (empty = in memory)")
		keepJobs  = flag.Int("keep-jobs", 512, "serve: max retained terminal jobs (oldest evicted first; negative = unbounded)")
		keepAge   = flag.Duration("keep-age", 0, "serve: evict terminal jobs older than this (0 = no age bound)")
		tenants   = flag.String("tenants", "", "serve: tenant keyfile ({\"tenants\":[{\"id\",\"key\",\"weight\",...}]}); enables API-key auth, per-tenant quotas and weighted fair-share scheduling")
		fleetFile = flag.String("fleet", "", "serve: fleet config ({\"self\",\"key\",\"nodes\":[{\"id\",\"url\",\"data_dir\"}]}); federates this server with the listed nodes")
	)
	flag.Parse()

	if *serveAddr != "" {
		runServe(*serveAddr, *queue, *workers, *timeout, *drain, *metrics, *progress, *dataDir, *keepJobs, *keepAge, *tenants, *fleetFile)
		return
	}
	if *netFile == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Unknown -analysis is a usage error: usage + exit 2, before any work.
	spec := &jobspec.Spec{Analysis: jobspec.Kind(*analysis)}
	if err := spec.Validate(); err != nil {
		var unknown *jobspec.ErrUnknownAnalysis
		if errors.As(err, &unknown) {
			fmt.Fprintf(os.Stderr, "relsim: %v\n", err)
			flag.Usage()
			os.Exit(2)
		}
	}

	text, err := os.ReadFile(*netFile)
	if err != nil {
		log.Fatal(err)
	}
	spec = &jobspec.Spec{
		Version:  jobspec.SpecVersion,
		Analysis: jobspec.Kind(*analysis),
		Netlist:  string(text),
		Record:   splitList(*record),
		Seed:     *seed,
		Timeout:  jobspec.Duration(*timeout),
	}
	switch spec.Analysis {
	case jobspec.KindTran:
		spec.Tran = &jobspec.TranParams{Stop: *stop, Step: *step, Adaptive: *adaptive, LTETol: *ltetol}
	case jobspec.KindSweep:
		spec.Sweep = &jobspec.SweepParams{Source: *source, From: *from, To: *to, Points: *points}
	case jobspec.KindAC:
		spec.AC = &jobspec.ACParams{Source: *acSource, FStart: *acFrom, FStop: *acTo, Points: *acPoints}
	case jobspec.KindAge:
		spec.Age = &jobspec.AgeParams{Years: *years, TempK: *temp, Checkpoints: 10}
	case jobspec.KindMC:
		spec.MC = &jobspec.MCParams{Trials: *trials, Node: *node, Shards: *shards,
			Lo: finitePtr(*lo), Hi: finitePtr(*hi)}
	case jobspec.KindCorners:
		spec.Corners = &jobspec.CornersParams{Node: *node, SigmaVT: *sigmaVT, SigmaBeta: *sigmaBe,
			Lo: finitePtr(*lo), Hi: finitePtr(*hi)}
	case jobspec.KindCentering:
		spec.Centering = &jobspec.CenteringParams{Node: *node, Lo: finitePtr(*lo), Hi: finitePtr(*hi),
			Trials: *trials, MaxIters: *maxIters, Step: *sizeStep, MaxScale: *maxScale,
			Devices: splitList(*devices)}
	case jobspec.KindSignoff:
		spec.Signoff = &jobspec.SignoffParams{Node: *node, Lo: finitePtr(*lo), Hi: finitePtr(*hi),
			Trials: *trials, SigmaVT: *sigmaVT, SigmaBeta: *sigmaBe,
			Years: *years, TempK: *temp, TargetFIT: *tgtFIT}
	}
	// No ApplyDefaults here: the flag defaults above already encode every
	// default, and defaulting would silently rewrite explicit zeros
	// (-seed 0, -trials 0) the way a sparse JSON document wants but a
	// command line does not.
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}

	// Wire the whole-stack instrumentation when anything consumes it; with
	// neither flag set the solver keeps its nil-sink fast path.
	if *progress || *metrics != "" {
		reg := obs.NewRegistry()
		core.EnableMetrics(reg)
		if *metrics != "" {
			// Listen synchronously so a bad address or busy port fails the
			// run at startup instead of being logged mid-analysis.
			ln, err := net.Listen("tcp", *metrics)
			if err != nil {
				log.Fatalf("metrics server: %v", err)
			}
			log.Printf("serving metrics on http://%s/metrics", ln.Addr())
			go func() {
				if err := http.Serve(ln, obs.Handler(reg)); err != nil {
					log.Printf("metrics server: %v", err)
				}
			}()
		}
		if *progress {
			pub := obs.NewPublisher(reg, time.Second, &obs.LogSink{
				W: os.Stderr, Prefix: "relsim: ",
				Keys: []string{
					"variation_trial_seconds",
					"circuit_newton_iterations_total",
					"circuit_op_total",
					"aging_checkpoints_total",
				},
			})
			defer pub.Stop()
		}
	}

	// Parse once up front for the banner (Execute re-parses internally);
	// deck errors surface here, before any analysis starts.
	deck, err := netlist.Parse(string(text))
	if err != nil {
		log.Fatal(err)
	}
	if deck.Title != "" {
		// Stderr, not stdout: piped CSV/tables must stay machine-readable.
		fmt.Fprintf(os.Stderr, "* %s (tech %s, %g K)\n", deck.Title, deck.Tech.Name, deck.TempK)
	}

	res, err := jobspec.Execute(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	render(spec, res)
}

// finitePtr converts a ±Inf-defaulted bound flag into the jobspec's
// optional-pointer form: nil when the flag was left at its infinite
// default, the value otherwise.
func finitePtr(v float64) *float64 {
	if math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
