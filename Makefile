# Build, verify, and benchmark targets. `make verify` is the full gate
# (format, vet, build, race-enabled tests); `make bench` records every
# experiment suite in BENCH_SUITES to its BENCH_E<NN>.json (E11 end-to-end,
# E14 grid pruning, E15 worker width, E16 session concurrency, E17
# streaming appends, E18 sliding-window expiry, E19 retraction, E20
# plaintext packing, E21 packed uplink, E22 shard scaling) so the
# performance trajectory is tracked PR over PR; `make bench-e<NN>` records
# one. Every bench file is stamped with the commit hash and Go version.
# The whole-stack benchmark with regression bounds is bench/ (see
# bench/README.md), not these suites.

GO ?= go

BENCH_SUITES := 11 14 15 16 17 18 19 20 21 22
# Suites whose headline number is the full-size (n=48) workload rather
# than the quick smoke.
BENCH_FULL := 20 21
BENCH_TARGETS := $(addprefix bench-e,$(BENCH_SUITES))

.PHONY: all build test race vet fmt verify bench $(BENCH_TARGETS) fuzz clean

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

bench: $(BENCH_TARGETS)

$(BENCH_TARGETS): bench-e%:
	$(GO) run ./cmd/ppdbscan bench -suite e$* $(if $(filter $*,$(BENCH_FULL)),,-quick) -out BENCH_E$*.json
	@cat BENCH_E$*.json

# Short fuzz pass over the wire, batch-frame, mux-frame, and spatial-grid
# codecs.
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

clean:
	rm -f $(foreach s,$(BENCH_SUITES),BENCH_E$(s).json)
