package main

import (
	"context"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// runServe runs relsim as a long-running job service: the internal/serve
// API and the observability endpoints share one listener, per-job
// defaults come from the same flags the one-shot mode uses, and SIGINT/
// SIGTERM trigger a graceful drain in which running jobs persist partial
// results. Identical resubmissions are answered from the spec-keyed
// result cache. With -data-dir the jobs and the cache survive restarts:
// job lifecycles are journaled, terminal results snapshotted, and a
// restart against the same directory restores the previous campaign —
// terminal jobs served as-is, queued jobs re-run, interrupted
// Monte-Carlo campaigns resumed from their last journaled chunk
// checkpoint, and other interrupted jobs failed with a structured
// cause; without it the store lives in memory. With -tenants, the API
// requires per-tenant keys and schedules tenants by weighted fair share
// under their configured quotas. With -fleet, the server federates with
// the configured nodes: forwarded job lookups, health-probed placement
// of campaign shards (mc.shards > 1), fleet-wide max_running and
// journal-replay failover for dead peers. Without it the server is a
// fleet of one and runs every shard itself.
func runServe(addr string, queueDepth, workers int, defaultTimeout, drain time.Duration, metricsAddr string, progress bool, dataDir string, keepJobs int, keepAge time.Duration, tenantsFile, fleetFile string) {
	reg := obs.NewRegistry()
	core.EnableMetrics(reg)

	var tenantCfgs []serve.TenantConfig
	if tenantsFile != "" {
		var err error
		tenantCfgs, err = serve.LoadTenants(tenantsFile)
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		log.Printf("multi-tenant mode: %d tenant(s) from %s", len(tenantCfgs), tenantsFile)
	}

	var fleetCfg *serve.FleetConfig
	if fleetFile != "" {
		var err error
		fleetCfg, err = serve.LoadFleet(fleetFile)
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		log.Printf("fleet mode: node %s of %d from %s", fleetCfg.Self, len(fleetCfg.Nodes), fleetFile)
	}

	st, err := store.Open(dataDir, reg, store.Options{})
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	defer st.Close()
	if rec := st.Recovered(); len(rec) > 0 {
		var terminal, queued, interrupted, resumable int
		for _, r := range rec {
			switch r.State {
			case store.StateQueued:
				queued++
			case store.StateInterrupted:
				if len(r.Checkpoints) > 0 {
					resumable++
				} else {
					interrupted++
				}
			default:
				terminal++
			}
		}
		log.Printf("recovered %d job(s) from %s: %d terminal, %d re-queued, %d resumable from checkpoints, %d interrupted",
			len(rec), dataDir, terminal, queued, resumable, interrupted)
	}

	srv := serve.NewServer(serve.Config{
		QueueDepth:      queueDepth,
		Workers:         workers,
		DefaultTimeout:  defaultTimeout,
		Registry:        reg,
		Store:           st,
		MaxTerminalJobs: keepJobs,
		MaxTerminalAge:  keepAge,
		Tenants:         tenantCfgs,
		Fleet:           fleetCfg,
	})

	// Listen synchronously so a bad address or busy port is a startup
	// failure, not a log line racing the first request.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	log.Printf("serving jobs on http://%s/v1/jobs (queue %d, metrics on /metrics)", ln.Addr(), queueDepth)
	if metricsAddr != "" {
		// The job mux already serves /metrics; honour -metrics-addr anyway
		// for scrapers pointed at a dedicated port.
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			log.Fatalf("metrics server: %v", err)
		}
		log.Printf("serving metrics on http://%s/metrics", mln.Addr())
		go func() {
			if err := http.Serve(mln, obs.Handler(reg)); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}
	if progress {
		pub := obs.NewPublisher(reg, time.Second, &obs.LogSink{
			W: os.Stderr, Prefix: "relsim: ",
			Keys: []string{
				"serve_queue_depth",
				"serve_jobs_inflight",
				"serve_jobs_submitted_total",
				"variation_trial_seconds",
			},
		})
		defer pub.Stop()
	}

	httpSrv := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	select {
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("shutting down: draining jobs (budget %s)", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain budget exhausted: running jobs cancelled, partial results persisted")
	}
	httpCtx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	_ = httpSrv.Shutdown(httpCtx)
	log.Printf("server stopped")
}
