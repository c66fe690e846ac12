GO ?= go

.PHONY: all build test race vet benchmark benchmark-compare bench bench-smoke serve-smoke clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# benchmark runs the repository's committed benchmark (BENCHMARK.json,
# benchmark/README.md): every workload end to end, one table each.
# benchmark-compare applies BENCHMARK.json's bounds to two result files
# written with `go run ./benchmark -runs N -out file.json`.
benchmark:
	$(GO) run ./benchmark

benchmark-compare:
	$(GO) run ./benchmark -compare $(OLD) $(NEW)

# bench writes the fixed-workload benchmark suite to BENCH_N.json so the
# performance trajectory of successive PRs can be diffed. Bump the file
# number when recording a new baseline next to an old one. BENCH_2 added
# the serving section: per-query latency and queries/sec for concurrent
# clients sharing one prebuilt index. BENCH_3 adds the query-serving
# points: range-cN / knn-cN throughput and allocs/op for single-probe
# queries on the shared index. BENCH_4 adds the network-path points:
# http-range-cN / http-knn-cN qps through the touchserved HTTP subsystem
# on loopback, next to the in-process numbers. BENCH_5 adds the
# cancellable-execution points: stream-join (whole-dataset join consumed
# off the JoinSeq iterator, pairs/sec) and cancel-latency (time from
# context cancellation to engine quiescence). BENCH_7 adds the binary
# wire-protocol points: bin-range-cN / bin-knn-cN (one request per round
# trip, like HTTP) and bin-*-pipelined-cN (64 requests in flight per
# connection) through the touchserved binary listener on loopback.
# BENCH_8 adds the incremental-update points: update-throughput
# (PATCH-applied insert/delete batches per second against a Mutable) and
# query-under-mutation (range qps while a writer mutates and compactions
# fold in the background). BENCH_9 adds the observability points:
# trace-overhead (the prebuilt-index join with a live span vs the
# nil-span fast path as baseline_ns) and metrics-scrape (one GET
# /metrics render against a serving catalog). BENCH_10 adds the routing
# points: router-range-cN (the pipelined range workload through the
# touchrouter wire front over two replicas, with the direct
# bin-range-pipelined-cN number as baseline_ns — the budget is routed
# ≤ 2× direct) and router-failover-latency (wall time from killing the
# primary ring owner to the first successful read through the router).
BENCH_OUT ?= BENCH_10.json
bench:
	$(GO) run ./cmd/touchbench -bench -json $(BENCH_OUT)

# bench-smoke is the CI-sized run: every testing.B benchmark once.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# serve-smoke boots touchserved on a random port, exercises every query
# shape plus a join and the metrics endpoint over real HTTP with curl,
# and asserts a clean SIGTERM drain.
serve-smoke:
	./scripts/serve-smoke.sh

clean:
	rm -f BENCH_*.json
	$(GO) clean ./...
