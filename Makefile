GO ?= go

.PHONY: all build test race vet loc fuzz stress benchmark benchmark-compare serve-smoke clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# loc prints the number of non-test Go lines outside benchmark/, the size
# the simplicity entries of CHANGES.md and ROADMAP.md quote.
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l

# fuzz runs every fuzz target for FUZZTIME each — the list CI's fuzz
# smoke runs, so a codec change is fuzzed locally exactly as CI fuzzes
# it. Each entry is package:target; failing inputs land in that
# package's testdata/fuzz/.
FUZZTIME ?= 30s
FUZZ_TARGETS = internal/testutil:FuzzJoin internal/testutil:FuzzDistanceJoin \
	internal/testutil:FuzzRangeQuery \
	internal/testutil:FuzzKNN internal/testutil:FuzzSortIDs \
	internal/testutil:FuzzSnapshotDecode internal/testutil:FuzzThaw \
	internal/testutil:FuzzWireDecode internal/testutil:FuzzDeltaMerge \
	internal/testutil:FuzzAssign \
	internal/str:FuzzPack internal/server:FuzzHTTPDataPlane \
	internal/server:FuzzServerModel \
	internal/geom:FuzzBoxKernels internal/grid:FuzzGridRange

fuzz:
	set -e; for entry in $(FUZZ_TARGETS); do \
		pkg=$${entry%%:*}; target=$${entry#*:}; \
		$(GO) test -run '^$$' -fuzz "^$${target}\$$" -fuzztime $(FUZZTIME) ./$${pkg}; \
	done

# stress runs CI's race x10 pass over the delta layer and the join entry
# points, then the server's model test, at -count=$(COUNT) (default 50)
# beside nproc+2 CPU burners, so a test whose premise depends on the
# scheduler fails locally; see scripts/stress.sh for COUNT, BURNERS and
# RUN. Not a CI step.
stress:
	./scripts/stress.sh

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
