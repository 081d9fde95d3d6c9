# Flux build and verification entry points.
#
#   make verify      gofmt + vet + fluxvet + build + full test suite + the
#                    fluxperf module's vet and tests (tier-1 gate; any
#                    unformatted file, vet or fluxvet finding fails it)
#   make fmt         fail if gofmt would rewrite any tracked Go file
#   make lint        fluxvet alone: decorator-spec analysis (layer 1) plus
#                    the repo source invariants (layer 3)
#   make race        -race pass over the concurrency-sensitive packages
#   make bench       hot-path microbenchmarks (record, obs, device boot,
#                    image marshal and unmarshal, chunk-store puts, one
#                    recorded Binder call from an app) + matrix scaling
#                    benchmarks
#   make bench-pipeline  parallel-marshal / chunking / streamed-link /
#                    rsyncx benchmarks plus the matrix lab spec (streamed
#                    vs sequential across worker widths)
#   make bench-faults  the faults lab spec: recovery, retries and rollbacks
#                    from benign (5%) through headline (15%) to hostile
#                    (75%) chunk fault rates
#   make bench-commuter  the commuter lab spec: dirty rate x cache budget
#                    x transfer mode over 4 round trips per pair
#   make results     regenerate every figure and write BENCH_results.json
#                    (the other baselines are rewritten by their tier-1
#                    tests with -update: BENCH_commuter.json by
#                    `go test ./internal/experiments -run
#                    TestCommittedBaselines`, BENCH_lab.json by
#                    `go test ./internal/lab -run TestCommittedReport`,
#                    BENCH_fleet.json by `go test ./internal/fleet -run
#                    TestCommittedReports`)
#   make fleet       fleet engine gate: package benchmarks (events/sec and
#                    allocs on a 6,000-migration spec and the 10k-device
#                    spec), the 0-alloc test, and TestCommittedReports (the
#                    smoke report byte-for-byte equal to BENCH_fleet.json,
#                    the 10k-device scale report at pinned digests and at
#                    profiling widths 1 and 16)
#   make profile     CPU+heap profiles of the fleet scale run and the full
#                    fluxbench evaluation (writes *.pprof)
#   make trace-demo  run one telemetry-enabled migration and write a
#                    sample Chrome trace (trace-demo.json) + stage report
#   make log-verify  seglog smoke: record a log, recompute its CRCs, hash
#                    chain, segment roots and anchor, flip one bit, assert
#                    that verification refuses the file

GO ?= go

.PHONY: all verify fmt vet lint build test bench-module race bench bench-pipeline bench-faults bench-commuter results fleet profile trace-demo log-verify clean

all: verify

verify: fmt vet lint build test bench-module

# Lists every tracked Go file gofmt would rewrite and fails if there is
# one.
fmt:
	@files=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# Replay-safety static analysis (DESIGN.md §5f, §5k): decorator-spec
# checks over the shipped AIDL catalog plus the layer-3 pass driver's
# source analyses (wallclock, determinism-taint, maprange, lock-order,
# durability, wire-drift). `fluxvet -logs run.flxg -image app.cria`
# also lints a persisted record log; see cmd/fluxvet.
lint:
	$(GO) run ./cmd/fluxvet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The fluxperf benchmark (bench/) is its own Go module, so ./... above
# never reaches it; it compiles against internal/experiments and checks
# its digests against the committed BENCH_*.json baselines.
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

# The packages with lock-free/sharded hot paths and the parallel matrix
# driver. Keep this green: the sharded record log, the worker-pool
# evaluation driver, the telemetry span ring, the span-instrumented
# migration pipeline (including its fault-recovery retry paths), the
# concurrent fault injector, the image marshaller's worker pool, the
# memoized sync trees and the mutex-guarded chunk store are only correct
# if they are race-clean. So are the process-wide tables aidl.Parse
# compiles and every Recorder, Dispatcher and replay Engine reads, and
# the per-profile system partitions concurrent boots share (device's
# parallel-pairs test reads both from concurrent boots).
race:
	$(GO) test -race ./internal/record/ ./internal/experiments/ ./internal/binder/ ./internal/obs/ ./internal/migration/ ./internal/cria/ ./internal/netsim/ ./internal/rsyncx/ ./internal/faults/ ./internal/chunkstore/ ./internal/lab/ ./internal/fleet/ ./internal/seglog/ ./internal/aidl/ ./internal/replay/ ./internal/services/ ./internal/device/ ./internal/android/

bench:
	$(GO) test -bench=. -benchmem ./internal/record/
	$(GO) test -bench=. -benchmem ./internal/obs/
	$(GO) test -bench=. -benchmem ./internal/device/
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/cria/
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/chunkstore/
	$(GO) test -bench='BenchmarkMatrixWorkers' -benchmem .
	$(GO) test -run='^$$' -bench='BenchmarkRecordInterposition' -benchmem .

# The streaming-pipeline hot paths: parallel FXC2 marshal (run with
# -cpu 1,4 on multi-core hosts to see the worker-pool scaling), chunk
# partitioning, streamed link scheduling, and the rsyncx plan builder —
# then the streamed-vs-sequential matrix itself, whose pipeline.*
# signals gate byte identity and exact savings.
bench-pipeline:
	$(GO) test -bench='BenchmarkImage' -benchmem ./internal/cria/
	$(GO) test -bench=. -benchmem ./internal/netsim/
	$(GO) test -bench='BenchmarkBuildPlan' -benchmem ./internal/rsyncx/
	$(GO) run ./cmd/fluxlab run lab/specs/matrix.yaml

# The fault matrix swept from a benign 5% to a hostile 75% chunk fault
# rate that exercises rollback-to-home at scale: a cell that neither
# completes nor rolls back cleanly fails the run. The faults.* signals
# gate the headline model (15% chunk faults, ≤1 link flap per
# migration), including the ≥99% recovery bar.
bench-faults:
	$(GO) run ./cmd/fluxlab run lab/specs/faults.yaml

# The commuter scenario behind the delta-migration acceptance bar: the
# cache.steady_state_bound signal requires hops 2+ to ship at most 25%
# of hop 1's bytes; the sweep cells vary dirty rate, cache budget and
# transfer mode.
bench-commuter:
	$(GO) run ./cmd/fluxlab run lab/specs/commuter.yaml

results:
	$(GO) run ./cmd/fluxbench -all -json BENCH_results.json

# The fleet discrete-event engine gate: hot-path benchmarks that report
# simulated events/sec (budget ≥1M) on a 6,000-migration spec and on the
# 10k-device spec, TestRunSteadyStateAllocs asserting 0 allocs per run,
# and TestCommittedReports: the smoke workload byte-for-byte equal to the
# committed baseline, and the 10k-device / 50k-migration scale spec at
# pinned digests, at its own seed also at profiling widths 1 and 16 (the
# reports must be identical — determinism is structural).
fleet:
	$(GO) test -bench='BenchmarkFleet' -benchmem -run 'TestRunSteadyStateAllocs|TestCommittedReports' ./internal/fleet/

# Profiles of the two heaviest drivers: the fleet scale run and the
# full evaluation. Inspect with `go tool pprof fleet-cpu.pprof`.
profile:
	$(GO) run ./cmd/fluxfleet -spec fleet/specs/scale-10k.yaml -cpuprofile fleet-cpu.pprof -memprofile fleet-mem.pprof > /dev/null
	$(GO) run ./cmd/fluxbench -all -cpuprofile bench-cpu.pprof -memprofile bench-mem.pprof > /dev/null

# One migration with full telemetry: flamegraph-style stage breakdown on
# stdout, Chrome trace-event JSON (chrome://tracing / ui.perfetto.dev)
# in trace-demo.json.
trace-demo:
	$(GO) run ./cmd/fluxstat -app com.king.candycrushsaga -trace trace-demo.json

# The tamper-evidence smoke (DESIGN.md §5j): record a real workload's
# log to disk, verify the full hash chain + anchor, then flip a single
# bit and assert -verify refuses the file. Detection, never wrong replay.
log-verify:
	$(GO) run ./cmd/fluxtrace -app com.whatsapp -o /tmp/flux-log-verify.flxg > /dev/null
	$(GO) run ./cmd/fluxtrace -verify /tmp/flux-log-verify.flxg
	$(GO) run ./cmd/fluxtrace -tamper /tmp/flux-log-verify.flxg
	! $(GO) run ./cmd/fluxtrace -verify /tmp/flux-log-verify.flxg

# Removes only what targets write into the repository root; the
# committed BENCH_*.json baselines stay.
clean:
	rm -f trace-demo.json *.pprof
