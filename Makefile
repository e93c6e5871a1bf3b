# Build/test/benchmark entry points. `make ci` is the gate every change
# must pass: gofmt, vet, the package-doc check, build, the full test
# suite under the race detector, and a one-shot benchmark smoke pass
# proving the harness still runs.

GO ?= go

.PHONY: ci fmt vet doccheck docs build test race race-fault race-serve race-store race-batch race-shard race-campaign race-tenant race-fleet fuzz-smoke loadgen-smoke bench-smoke bench bench-solver bench-sparse bench-sparse-smoke

ci: fmt vet doccheck docs build race race-fault race-serve race-store race-batch race-shard race-campaign race-tenant race-fleet fuzz-smoke loadgen-smoke bench-smoke

# Every Go file must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# Every package must open with a doc comment mapping it to its paper
# section/equation, and every exported identifier under internal/ must
# have a non-test caller somewhere in the tree (bench/e2e included), or a
# `paper: §N` / `test seam` tag in its doc comment plus a test that uses
# it; see cmd/doccheck. The same run holds the documentation gates:
# exported report types must carry doc comments, docs/REPORT_SCHEMA.md
# must match the report structs' json tags in both directions, and
# docs/API.md must match the serve package's mux routes, error-code
# taxonomy and error envelope in both directions. One run, so the
# type-checked walk happens once per `make ci`.
doccheck:
	$(GO) run ./cmd/doccheck -exported internal/report,internal/report/signoff -schema docs/REPORT_SCHEMA.md=internal/report/signoff -api docs/API.md=internal/serve .

# The documentation gates (through doccheck, which make runs once even
# when ci names both targets), and every runnable godoc example must
# still build and pass.
docs: doccheck
	$(GO) test -run 'Example' ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-isolation and cancellation paths under the race detector with a
# higher iteration count: panicking trials, the failure taxonomy's
# classification, mid-run cancellation and partial-result accounting in
# variation, core and aging.
race-fault:
	$(GO) test -race -count=2 -run 'Panic|Cancel|Classif|Deadline|Telemetry' ./internal/variation/ ./internal/core/ ./internal/aging/

# The job-server lifecycle under the race detector: submit/poll/stream,
# exact queue backpressure, mid-job cancellation with partial-result
# accounting, and the graceful drain.
race-serve:
	$(GO) test -race -count=2 ./internal/serve/ ./internal/jobspec/

# Durability under the race detector: journal replay and compaction
# (with the journal fuzz target's seed corpus), crash-recovery
# classification (done/queued/interrupted), the spec-keyed result cache
# across restarts and over the in-memory store, the persist-before-
# publish order that lets a client read its own cached result, and the
# retention policy that bounds memory and disk.
race-store:
	$(GO) test -race -count=2 -run 'Store|Crash|Recover|Cache|Retention|Evict|RetryAfter|Interrupted|Seed|Hash|FuzzJournal|ReadYourWrites' ./internal/store/ ./internal/serve/ ./internal/jobspec/

# The die pool under the race detector: variation.DiePool keeps one
# built circuit per worker for a whole job in core reliability runs,
# jobspec MC campaigns and design centering. Covers the pool's own unit
# tests, the one-die-per-worker build counts, the core golden digests
# and jobspec value digests that prove reuse never changes a result, and
# the sparse-backend reuse tests in circuit.
race-batch:
	$(GO) test -race -count=2 -run 'Batch|Pool|Golden|Sparse' ./internal/core/ ./internal/jobspec/ ./internal/variation/ ./internal/circuit/

# The sharded-campaign and checkpoint/resume paths under the race
# detector: mergeable moments and sketches, shard-seed independence,
# trial-range scatter-gather (local and fleet-dispatched), checkpoint
# journaling with compaction/eviction guarantees, and the kill-and-
# resume acceptance suite.
race-shard:
	$(GO) test -race -count=1 -run 'Moments|Sketch|SplitMix|Correl|Chunk|Campaign|Shard|Resume|Checkpoint' ./internal/mathx/ ./internal/variation/ ./internal/jobspec/ ./internal/store/ ./internal/serve/

# The composite-campaign paths under the race detector: the signoff
# graph's table at a higher count (failed, panicking and cancelled nodes
# yielding a structured partial report, a complete run never partial,
# serial progress and checkpoint emission), then mid-campaign kill +
# restart resuming from journaled sub-job checkpoints and cache-hit
# sub-jobs surfacing in report provenance.
race-campaign:
	$(GO) test -race -count=2 -run 'TestSignoffSubJobFailureYieldsPartialReport' ./internal/jobspec/
	$(GO) test -race -count=1 -run 'Campaign|Signoff|Centering|Corner' ./internal/jobspec/ ./internal/serve/ ./internal/variation/ ./internal/report/...

# The multi-tenant API paths under the race detector: key auth, tenant
# quota and trial-rate 429s with tenant-derived Retry-After, weighted
# fair-share convergence, batch dedup/cache admission atomicity, list
# pagination, readiness, journaled fair-share accounting across restart,
# priority classes, the /events fan-out (1k subscribers, slow-reader
# disconnect, bounded batching), and the open default tenant of a
# keyless server scoping its listing like a keyed one.
race-tenant:
	$(GO) test -race -count=1 -run 'TestTenant|TestFairShare|TestTrialRate|TestBatch|TestList|TestReadyz|TestRestartFairShare|TestInteractive|TestEvent|TestStorelessKeyless' ./internal/serve/

# The fleet-federation paths under the race detector: shard dispatch
# failures against probed-healthy peers (dead, hung and auth-rejecting:
# unreachable vs auth fallback accounting, hung-peer goroutine hygiene),
# least-backlog placement with bit-identical merges, cross-node job
# forwarding with the hop guard, probe-driven quarantine and recovery,
# fleet-wide max_running, the two-node kill-and-failover acceptance run
# proving an adopted campaign resumes from the dead node's journal
# bit-identical to an uninterrupted one, a cache-answered shard staying
# fleet-internal, the fleet-of-one wire contract of a lone server, and
# the fleet-config fuzz seeds.
race-fleet:
	$(GO) test -race -count=1 -run 'TestFleet|FuzzFleet|TestShardDispatch|TestShardPeerFallbackLocal|TestSingleNode' ./internal/serve/

# A few seconds of coverage-guided fuzzing per target: the fleet config
# parser, journal replay, spec decoding and netlist parsing on arbitrary
# input, and the sparse LU on MNA-shaped systems decoded from bytes (analysis bit-identical
# to the map-based reference, solve against dense). Minimizing each new
# corpus entry is capped at 1s, or the fsync-bound journal target would
# spend the whole budget minimizing. New failing inputs land in the
# package's testdata/fuzz directory as regression seeds.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFleetConfig$$' -fuzztime 5s -fuzzminimizetime 1s -parallel 2 ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime 5s -fuzzminimizetime 1s -parallel 2 ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzSpecDecode$$' -fuzztime 5s -fuzzminimizetime 1s -parallel 2 ./internal/jobspec/
	$(GO) test -run '^$$' -fuzz '^FuzzSparseLU$$' -fuzztime 5s -fuzzminimizetime 1s -parallel 2 ./internal/linalg/sparse/
	$(GO) test -run '^$$' -fuzz '^FuzzNetlistParse$$' -fuzztime 5s -fuzzminimizetime 1s -parallel 2 ./internal/netlist/

# Harness-rot check for cmd/loadgen: one short open-loop stage against
# an in-process server, asserting the BENCH_9 driver still runs end to
# end (the full run behind BENCH_9.json uses the defaults).
loadgen-smoke:
	$(GO) run ./cmd/loadgen -self -stages 2 -stage-duration 3s -trials 5000 -out /dev/null

# One iteration of every benchmark: catches harness rot without the cost
# of a full measurement run.
bench-smoke: bench-sparse-smoke
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Full measurement run of every benchmark with allocation stats.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# The solver hot-path microbenchmarks behind BENCH_1.json / the README
# "Performance" section.
bench-solver:
	$(GO) test -run '^$$' -bench 'BenchmarkOperatingPoint$$|BenchmarkOperatingPointCold$$|BenchmarkTransientStep$$' -benchmem -benchtime=2s .
	$(GO) test -run '^$$' -bench 'FactorSolve' -benchmem ./internal/linalg/

# The sparse-backend crossover and pooled-campaign benchmarks behind
# BENCH_6.json / the README crossover table (BenchmarkMCService also
# matches its 254-stage sibling BenchmarkMCServiceSparse), plus the scalar
# compact-model evaluation cost and one Markowitz analysis of the
# 256-unknown ladder (BENCH_23.json).
bench-sparse:
	$(GO) test -run '^$$' -bench 'BenchmarkLadderOP|BenchmarkMCCampaign|BenchmarkMCService' -benchmem -benchtime=2s .
	$(GO) test -run '^$$' -bench 'BenchmarkEval' -benchmem -benchtime=2s ./internal/device/
	$(GO) test -run '^$$' -bench 'BenchmarkSparseAnalyze' -benchmem -benchtime=2s ./internal/linalg/sparse/

# Harness-rot check for the same set: one iteration each.
bench-sparse-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkLadderOP|BenchmarkMCCampaign|BenchmarkMCService' -benchtime=1x .
