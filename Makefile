# Build, verify, and benchmark targets. `make verify` is the full gate
# (format, vet, build, race-enabled tests). `make bench` runs the one
# benchmark, bench/ (six workloads; see bench/README.md), and
# `make bench-check` diffs its exact counters against
# bench/counters.json (four of the six workloads; see the target). The
# paper's tables are `ppdbscan experiments`.

GO ?= go

.PHONY: all build test race vet fmt verify bench bench-check fuzz clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

verify: fmt vet build race

bench:
	bash bench/run.sh -workload all

# Not `wan` or `ympp`: PR 22 (the lockstep chunk schedule) moved their
# transport.frames, core.cts_up and core.cts_down on purpose and could not
# edit bench/; their rows of bench/counters.json are stale until the
# `benchmark` PR of ROADMAP item 3 refreshes them, which puts this back to
# one `bash bench/run.sh -check`.
bench-check:
	for w in bulk live serve mesh; do bash bench/run.sh -check -workload $$w || exit 1; done

# Short fuzz pass over the wire, batch-frame, mux-frame, and spatial-grid
# codecs, and yao's limb kernel against math/big.
fuzz:
	$(GO) test ./internal/transport -run NONE -fuzz FuzzBatchFrameCodec -fuzztime 10s
	$(GO) test ./internal/transport -run NONE -fuzz FuzzReaderNeverPanics -fuzztime 10s
	$(GO) test ./internal/transport -run NONE -fuzz FuzzMuxFrame -fuzztime 10s
	$(GO) test ./internal/spatial -run NONE -fuzz FuzzGridBucket -fuzztime 10s
	$(GO) test ./internal/spatial -run NONE -fuzz FuzzGridDelta -fuzztime 10s
	$(GO) test ./internal/spatial -run NONE -fuzz FuzzTombstoneDelta -fuzztime 10s
	$(GO) test ./internal/spatial -run NONE -fuzz FuzzPointTombstone -fuzztime 10s
	$(GO) test ./internal/encoding -run NONE -fuzz FuzzSlotPack -fuzztime 10s
	$(GO) test ./internal/compare -run NONE -fuzz FuzzPackedUplink -fuzztime 10s
	$(GO) test ./internal/yao -run NONE -fuzz FuzzMont4Exp -fuzztime 10s

clean:
	rm -rf .bench_build ppdbscan
