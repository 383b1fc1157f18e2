GO ?= go

# Packages with the concurrency-heavy machinery; they get a dedicated
# race-detector tier in `make check`.
RACE_PKGS := ./internal/appendforest/... ./internal/core/... ./internal/wire/... ./internal/server/... ./internal/storage/... ./internal/transport/... ./internal/telemetry/... ./internal/recman/... ./internal/locallog/... ./internal/loadassign/... ./internal/retention/...

.PHONY: all build test race check bench bench-smoke bench-full vet fmt crashaudit fuzz soak

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

vet:
	$(GO) vet ./...

fmt:
	$(GO) fmt ./...

# crashaudit kills the client (or its servers) at every registered
# crash point, recovers, and audits the Section 3.1 invariants — a
# deterministic sweep of all points plus randomized crash/recover
# iterations under a lossy network (see DESIGN.md, "Crash-point map").
# Long soaks: make crashaudit CRASHAUDIT_ITERS=5000
CRASHAUDIT_ITERS ?= 200
crashaudit:
	$(GO) run ./cmd/crashaudit -iters $(CRASHAUDIT_ITERS)

# fuzz runs each decoder fuzz target for 5 s: the handshake and install
# payload decoders (seeded from the committed goldens in
# internal/wire/testdata), the store's stream frame and manifest
# decoders, the archive's data frame decoder, and the persistent
# append-forest's open.
fuzz:
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeSynAckPayload$$' -fuzztime 5s
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzDecodeInstallPayload$$' -fuzztime 5s
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzDecodeManifest$$' -fuzztime 5s
	$(GO) test ./internal/retention -run '^$$' -fuzz '^FuzzDecodeDataFrame$$' -fuzztime 5s
	$(GO) test ./internal/appendforest -run '^$$' -fuzz '^FuzzOpenPersistent$$' -fuzztime 5s

# soak runs the full-scale Section 5.3 log-space soak: a simulated
# week of ET1 with periodic sharp checkpoints over segmented stores
# and background compactors; the hot-segment disk footprint must
# plateau. (The plain test suite runs a miniature version of the same
# test.)
soak:
	DISTLOG_SOAK=1 $(GO) test ./internal/recman/ -run TestSoakET1WeekDiskPlateau -v -timeout 30m -count=1

# bench-smoke keeps the benchmark building and running. bench/ is its
# own module, outside `go build ./...`, yet it compiles against the
# façade and half of internal/: without this nothing in the gate notices
# a refactor that breaks it. Vet and unit-test the module, then run every
# workload for a second, traced and untraced, through the launcher
# BENCHMARK.json names (same module flags as bench/run.sh).
bench-smoke:
	cd bench && GOFLAGS=-mod=mod GOWORK=off $(GO) vet ./... && GOFLAGS=-mod=mod GOWORK=off $(GO) test ./...
	bash bench/run.sh --smoke

# bench-full runs every workload BENCHMARK.json declares once at full
# length (seed 1, untraced) and fails on a non-zero exit, a missing
# result line, or a run with failed operations. bench-smoke's one-second
# phases and 50-transaction history cannot reach what only a long run
# does — a modelled disk filling near LSN 623k, say. Not part of check:
# it takes about two minutes.
BENCH_WORKLOADS = $(shell awk '/"workloads"/ {w = 1} w && /"name"/ {gsub(/.*"name": *"|".*/, ""); print} w && /^  \]/ {w = 0}' BENCHMARK.json)

bench-full:
	@for w in $(BENCH_WORKLOADS); do \
		echo "bench-full: $$w"; \
		out=$$(bash bench/run.sh --workload $$w --seed 1) || { echo "bench-full: $$w: exit status $$?" >&2; exit 1; }; \
		line=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "$$line"; \
		case "$$line" in \
		*'"failed":0,'*) ;; \
		*) echo "bench-full: $$w: failed operations or no result line" >&2; exit 1 ;; \
		esac; \
	done

# check is the CI gate: tier-1 build+tests, vet, the race tier over the
# client/wire/server packages, the crash-point audit, the decoder fuzz
# targets, and the benchmark smoke.
check: build test vet race crashaudit fuzz bench-smoke

# bench runs the write-path and read-path benchmarks and records the
# results in BENCH_writepath.json and BENCH_readpath.json (see bench.sh).
bench:
	./bench.sh
