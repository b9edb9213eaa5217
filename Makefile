# Build, verify, and benchmark targets. `make verify` is the full gate
# (format, vet, build, race-enabled tests). `make bench` runs the one
# benchmark, bench/ (six workloads; see bench/README.md), and
# `make bench-check` diffs its exact counters against
# bench/counters.json (`serve` only for now, and not all of it; see the
# target). The
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

# `serve` only. Its comparison, Ledger and uplink counters must read `ok`;
# its frame and downlink counters may read DIFFERS, and only those two. The
# other five rows of bench/counters.json are stale on purpose — a change
# that claims a gain may not edit bench/: the lockstep chunk schedule moved
# `wan` and `ympp`, the horizontal settle step moved transport.frames and
# the cts / frames counters of `bulk`, `live` and `mesh`, and the enhanced
# chunk schedule moved `serve`'s transport.frames 265 → 46 and
# core.cts_down 39 → 10; no comparison, cache or Ledger counter moved. The
# `benchmark` change of ROADMAP item 1(a) refreshes them (the fresh JSON
# lines are in CHANGES.md) and puts this back to one
# `bash bench/run.sh -check`.
bench-check:
	@out="$$(bash bench/run.sh -check -workload serve)"; echo "$$out"; \
	for c in core.secure_cmps core.ledger_total core.cts_up; do \
		echo "$$out" | grep -qE "^serve +$$c .* ok$$" || { echo "bench-check: serve $$c is not ok"; exit 1; }; \
	done; \
	bad="$$(echo "$$out" | grep -E '^serve ' | grep -vE ' ok$$' | grep -vE '^serve +(transport\.frames|core\.cts_down) ')"; \
	if [ -n "$$bad" ]; then echo "bench-check: counters differ:"; echo "$$bad"; exit 1; fi

# Short fuzz pass over the wire, batch-frame, mux-frame, and spatial-grid
# codecs, yao's limb kernel against math/big, and core's settle and
# enhanced-chunk op decoders.
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
	$(GO) test ./internal/core -run NONE -fuzz FuzzCoreOp -fuzztime 10s

clean:
	rm -rf .bench_build ppdbscan
