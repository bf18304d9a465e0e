# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build test race cover bench benchfast experiments examples fmt vet clean

all: build test

# Everything a change must keep green before it lands: build, vet, the
# full test suite (which runs the module's own invariant passes,
# DESIGN.md §9), the race detector over the concurrency-heavy packages
# and the root package (Open/Crash/Close with the checkpoint scheduler's
# goroutine), and one fast benchmark pass to catch perf-path breakage.
check: build vet test race-hot benchfast

.PHONY: race-hot
race-hot:
	$(GO) test -race ./internal/store ./internal/core ./internal/occ ./internal/txn ./internal/transport ./internal/logstore ./internal/wal ./internal/service ./internal/metrics .

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

# Fast hot-path benchmarks only (store contention, shipping allocations,
# the database image a mirror join encodes, decodes and installs):
# seconds, suitable for every edit-compile cycle and for `make check`.
benchfast:
	$(GO) test -run xxx -bench 'BenchmarkStoreParallel|BenchmarkStoreViewParallel|BenchmarkApplyGroup' -benchmem -benchtime=100000x ./internal/store
	$(GO) test -run xxx -bench 'BenchmarkReadMostly' -benchmem -benchtime=20000x ./internal/store
	$(GO) test -run xxx -bench 'BenchmarkShipperAllocs' -benchmem -benchtime=10000x ./internal/core
	$(GO) test -run xxx -bench 'BenchmarkCheckpointImage' -benchmem -benchtime=20x ./internal/core
	$(GO) test -run xxx -bench 'BenchmarkStoreReadWrite|BenchmarkShippedCommit' -benchmem -benchtime=10000x .
	$(GO) test -run xxx -bench 'BenchmarkTokenize' -benchmem -benchtime=1000x ./internal/service

# Paper-scale regeneration of every figure (minutes).
experiments:
	$(GO) run ./cmd/rodain-experiments -fig all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/recovery
	$(GO) run ./examples/numbertranslation
	$(GO) run ./examples/failover
	$(GO) run ./examples/billing
	$(GO) run ./examples/simulation -count 2500 -reps 3

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -f test_output.txt bench_output.txt
