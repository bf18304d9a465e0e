# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build test race cover bench benchfast bench-json benchdiff experiments examples fmt vet clean

all: build test

# Everything a change must keep green before it lands: build, vet, the
# full test suite (which runs the module's own invariant passes,
# DESIGN.md §9), the race detector over the concurrency-heavy packages,
# and one fast benchmark pass to catch perf-path breakage.
check: build vet test race-hot benchfast

.PHONY: race-hot
race-hot:
	$(GO) test -race ./internal/store ./internal/core ./internal/occ ./internal/txn ./internal/transport ./internal/logstore ./internal/wal ./internal/service ./internal/metrics

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# One quick pass over every figure/ablation benchmark.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Fast hot-path benchmarks only (store contention, shipping allocations):
# seconds, suitable for every edit-compile cycle and for `make check`.
benchfast:
	$(GO) test -run xxx -bench 'BenchmarkStoreParallel|BenchmarkStoreViewParallel|BenchmarkApplyGroup' -benchmem -benchtime=100000x ./internal/store
	$(GO) test -run xxx -bench 'BenchmarkReadMostly' -benchmem -benchtime=20000x ./internal/store
	$(GO) test -run xxx -bench 'BenchmarkShipperAllocs' -benchmem -benchtime=10000x ./internal/core
	$(GO) test -run xxx -bench 'BenchmarkStoreReadWrite|BenchmarkShippedCommit' -benchmem -benchtime=10000x .
	$(GO) test -run xxx -bench 'BenchmarkTokenize|BenchmarkServiceThroughput' -benchmem -benchtime=1000x ./internal/service

# Machine-readable hot-path benchmark results, one JSON file per
# package (BENCH_store.json, BENCH_core.json, BENCH_wal.json): the
# perf trajectory CI archives on every run.
bench-json:
	$(GO) test -run xxx -bench 'BenchmarkStoreParallel|BenchmarkStoreViewParallel|BenchmarkApplyGroup' -benchmem -benchtime=100000x ./internal/store | $(GO) run ./cmd/rodain-benchjson -o BENCH_store.json
	$(GO) test -run xxx -bench 'BenchmarkShipperAllocs|BenchmarkMirrorApplyParallel|BenchmarkEngineParallel' -benchmem -benchtime=10000x ./internal/core | $(GO) run ./cmd/rodain-benchjson -o BENCH_core.json
	$(GO) test -run xxx -bench 'BenchmarkOCCContention|BenchmarkDoomedPoll|BenchmarkValidateAfterCommits' -benchmem -benchtime=10000x ./internal/occ | $(GO) run ./cmd/rodain-benchjson -o BENCH_occ.json
	$(GO) test -run xxx -bench 'BenchmarkRecoverParallel' -benchmem -benchtime=3x ./internal/wal | $(GO) run ./cmd/rodain-benchjson -o BENCH_wal.json
	$(GO) test -run xxx -bench 'BenchmarkGroupCommit|BenchmarkTransientFsync' -benchmem -benchtime=5000x ./internal/core | $(GO) run ./cmd/rodain-benchjson -o BENCH_ship.json
	$(GO) test -run xxx -bench 'BenchmarkCheckpointPause|BenchmarkRecoverFromCheckpoint' -benchmem -benchtime=3x ./internal/core | $(GO) run ./cmd/rodain-benchjson -o BENCH_ckpt.json
	( $(GO) test -run xxx -bench 'BenchmarkReadMostly' -benchmem -benchtime=50000x ./internal/store ; \
	  $(GO) test -run xxx -bench 'BenchmarkReadOnlyTxn' -benchmem -benchtime=5000x ./internal/core ) | $(GO) run ./cmd/rodain-benchjson -o BENCH_read.json
	$(GO) test -run xxx -bench 'BenchmarkTokenize|BenchmarkServiceThroughput' -benchmem -benchtime=2000x ./internal/service | $(GO) run ./cmd/rodain-benchjson -o BENCH_service.json

# Per-benchmark deltas between two bench-json snapshots (ns/op, allocs,
# custom metrics), flagging regressions past THRESHOLD percent:
#   make benchdiff OLD=baseline/BENCH_core.json NEW=BENCH_core.json
THRESHOLD ?= 10
benchdiff:
	$(GO) run ./cmd/rodain-benchdiff -threshold $(THRESHOLD) $(OLD) $(NEW)

# Paper-scale regeneration of every figure (minutes).
experiments:
	$(GO) run ./cmd/rodain-experiments -fig all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/recovery
	$(GO) run ./examples/numbertranslation
	$(GO) run ./examples/failover
	$(GO) run ./examples/billing
	$(GO) run ./examples/sharded
	$(GO) run ./examples/simulation -count 2500 -reps 3

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -f test_output.txt bench_output.txt
