# Build, verify, and benchmark targets. `make verify` is the full gate
# (format, vet, build, race-enabled tests). `make bench` runs the one
# benchmark, bench/ (six workloads; see bench/README.md), and
# `make bench-check` diffs its exact counters against
# bench/counters.json (`serve` only for now; see the target). The
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

# `serve` only, and every counter of it must read `ok`. The other five rows
# of bench/counters.json are stale on purpose — a PR that claims a gain may
# not edit bench/: PR 22 (the lockstep chunk schedule) moved `wan` and
# `ympp`, PR 24 (the horizontal settle step) moved transport.frames and
# the cts / frames counters of `bulk`, `live` and `mesh`; no comparison,
# cache or Ledger counter moved. The `benchmark` PR of ROADMAP item 3
# refreshes them (fresh JSON lines: CHANGES.md, PR 22 and PR 24) and puts
# this back to one `bash bench/run.sh -check`.
bench-check:
	bash bench/run.sh -check -workload serve

# Short fuzz pass over the wire, batch-frame, mux-frame, and spatial-grid
# codecs, yao's limb kernel against math/big, and core's settle op decoder.
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
	$(GO) test ./internal/core -run NONE -fuzz FuzzSettleOp -fuzztime 10s

clean:
	rm -rf .bench_build ppdbscan
