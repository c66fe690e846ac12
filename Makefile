GO ?= go

.PHONY: all build test race vet benchmark benchmark-compare serve-smoke clean

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

# serve-smoke boots touchserved on a random port, exercises every query
# shape plus a join and the metrics endpoint over real HTTP with curl,
# and asserts a clean SIGTERM drain.
serve-smoke:
	./scripts/serve-smoke.sh

clean:
	$(GO) clean ./...
