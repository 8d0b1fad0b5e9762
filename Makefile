# loc and loc-check pipe find and make through awk; without pipefail a failing
# stage would vanish behind awk's exit 0 and loc-check would pass on an empty
# total. bash + pipefail makes every pipeline stage's failure the target's.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go

.PHONY: build test verify fuzz loc loc-check no-blobs bench-pairs bench-profile claims chaos netchaos recovery metrics server

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# chaos runs the fault-injection and recovery suite under the race
# detector: the fault plan's own tests, seeded storage faults and torn
# writes, buffer-manager retry, the buffer-pool torture and flusher tests,
# transaction restart loops, lock-timeout residue, and undo aggregation.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Retry|Torn|Timeout|Restart|Abort|Torture|Flusher' \
		./internal/fault/ ./internal/pagestore/ ./internal/tamix/ ./internal/node/ ./internal/tx/

# netchaos runs the connection-lifecycle resilience suite under the race
# detector: the fault plan's tests (its connection wrapper included), server
# keep-alive kills of silent connections, the idle-session reaper (locks
# released, connection survives), abrupt client kills mid-burst (zero lock
# residue), client-side session resume with abort-worthy errors, a server
# bounce under a 16-connection TaMix fleet, and a TaMix run over
# fault-injected wires.
netchaos:
	$(GO) test -race ./internal/fault/
	$(GO) test -race -run 'TestNetChaos' ./internal/bibserve/

# recovery runs the WAL and crash-recovery suite under the race detector:
# the seeded crash matrix (log crashes, torn write-backs, full-budget
# bursts, checkpointed bursts, crashes inside the checkpoint protocol's
# three phases, and one fault plan composing them; every row checks that
# its planned fault fired, and its residues are opened with core.Open), the
# log's own planned-crash tests, a crash residue
# opened twice through core.Open, recovery idempotence, the checkpoint codec
# and master-record tests (plus their fuzz corpora), the redo-completeness
# oracle (live store vs a store redone from the log alone, byte for byte,
# and its late-declaration mutant), checksum rejection on page fix, and the
# transaction double-finish / durable-commit contracts. TestMain fails the
# run if the crash matrix orphans scratch directories. Budget: ~2-3 min on 8
# cores (the matrix is seed-parallel; -short roughly quarters it).
recovery:
	$(GO) test -race -run 'Recover|Crash|TxnDone|Checksum|Corrupt|WAL|GroupCommit|Checkpoint|Master|Fuzz|RedoOracle' \
		./internal/wal/ ./internal/storage/ ./internal/tx/ ./internal/pagestore/ ./internal/core/

# metrics runs the observability-layer suite under the race detector: the
# histogram property tests, concurrent recorders, registry access, the
# debug endpoint, the run-report golden schema, the snapshot-equals-layer-
# counters and counter-name tests (local and over OpStats), the OpStats body
# codec, and the lock manager's shutdown-drain test.
metrics:
	$(GO) test -race -run 'Percentile|Histogram|Bucket|Concurrent|Registry|Snapshot|Merge|Debug|ServeDebug|Nil|Report|MinDur|CloseDrains|Metrics|Counter' \
		./internal/metrics/ ./internal/tamix/ ./internal/lock/ ./internal/bibserve/ ./internal/wire/

# server runs the client/server suite under the race detector: the loopback
# TaMix smoke test (every protocol selectable per session), the
# abrupt-disconnect and lock-wait-cancellation teardown tests, the server
# metrics golden test, plus the wire-protocol codec tests and the frame/
# message fuzz seed corpus (go test runs fuzz targets over their corpus
# unless -fuzz starts an expedition).
server:
	$(GO) test -race ./internal/server/ ./internal/client/ ./internal/bibserve/
	$(GO) test -race -run 'Fuzz|Frame|Msg|Codec|Roundtrip' ./internal/wire/

# verify is the full pre-merge gate, and runs everything once: compile, vet,
# the line-budget and tracked-file-size gates (loc-check, no-blobs), the
# complete test suite under the race
# detector (the lock package's equivalence tests lean on it heavily), the
# allocation-regression guards (non-race: the race detector changes
# allocation behavior, so the alloc tests are tagged !race), and a 20x loop
# of the loopback snapshot contestant — the run that found the FixAt
# version-chain hole, kept as its guard. The chaos, netchaos, recovery,
# metrics and server targets above are -run filtered subsets of the race
# pass, for humans iterating on one layer; verify does not repeat them.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) -s loc-check no-blobs
	$(GO) test -race ./...
	$(GO) test -run 'TestAlloc' ./internal/lock/ ./internal/server/ ./internal/client/ ./internal/storage/ ./internal/wal/ ./internal/node/ ./internal/pagestore/ ./internal/btree/
	$(GO) test -race -count=20 -run 'TestLoopbackTaMixAllProtocols/snapshot' ./internal/bibserve/

# fuzz runs every fuzz target of the repository for 10 s of new inputs, one
# at a time (go test -fuzz takes one target per run); the test suite only
# replays their corpora. A target is found by its `func Fuzz` line, so a new
# one joins without an edit here. An input that fails is written under the
# package's testdata/fuzz/, to be committed with the fix.
fuzz:
	@for dir in $$(grep -rlE '^func Fuzz' --include='*_test.go' . | xargs -n1 dirname | sort -u); do \
		for name in $$(grep -hoE '^func Fuzz[A-Za-z0-9_]*' $$dir/*_test.go | cut -c6-); do \
			echo "fuzz: $$dir $$name"; \
			$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s $$dir || exit 1; \
		done; \
	done

# loc prints non-blank, non-comment Go lines per package (tests, bench/ and
# the benchmark's build overlay under scripts/ excluded) and their total — the
# number CHANGES.md rows track.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './scripts/*' -print0 | xargs -0 awk \
		'!/^[ \t]*(\/\/.*)?$$/ { d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++; total++ } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", total }' | sort -k2,2

# loc-check makes the line budget a gate (ROADMAP aim 2: net-negative diffs
# are a goal): it fails when loc's total exceeds LOC_BUDGET, the total of the
# last PR that moved it. A PR that needs more lines raises the number here,
# in the open, and says why in its CHANGES.md row; one that deletes lowers it.
LOC_BUDGET := 14037
loc-check:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	if [ "$$total" -gt $(LOC_BUDGET) ]; then \
		echo "loc-check: $$total non-test lines exceed the budget of $(LOC_BUDGET) (make loc lists them per package)"; exit 1; \
	fi; \
	echo "loc-check: $$total non-test lines, budget $(LOC_BUDGET)"

# no-blobs fails when git tracks a file over 1 MiB: `go build ./cmd/tamix`
# drops its binary at the repository root, and PR 18 committed one (8 MB).
# .gitignore names the three command binaries; this catches whatever it misses.
no-blobs:
	@big=$$(git ls-files -z | xargs -0 -r ls -l 2>/dev/null | awk '$$5 > 1048576 { print $$5, $$NF }'); \
	if [ -n "$$big" ]; then echo "no-blobs: tracked files over 1 MiB:"; echo "$$big"; exit 1; fi

# bench-pairs is the one way a number gets into a PR (bench/README.md; the
# Go micro-benchmarks under internal/ are for iterating on one layer, and CI
# runs each once): the table a PR that touches a measured path reports. It
# builds ./bench at PARENT and at the working tree, runs N alternating pairs
# per workload (order flipped each pair) and prints, per workload and
# end-to-end metric, both medians with quartiles, the change and the pairs
# won. make bench-pairs PARENT=HEAD~1 N=10 WORKLOAD="remote_nav remote_mix"
# BENCH_FLAGS="-seed 7"; about 1 min per pair and workload. With TRACE=1
# [METRICS="pagestore.fix_per_txn wal.bytes_per_txn ..."] the pairs are traced
# runs and the rows the named per-layer metrics (default: node.alloc_kb_per_txn
# and node.allocs_per_txn), so a PR's per-layer acceptance rows come from the
# same harness as its end-to-end ones.
N ?= 10
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<rev> [N=10] [WORKLOAD=...] [BENCH_FLAGS=...] [TRACE=1 METRICS=...]"; exit 2; }
	BENCH_FLAGS="$(BENCH_FLAGS)" TRACE="$(TRACE)" METRICS="$(METRICS)" scripts/bench_pairs.py $(PARENT) $(N) $(WORKLOAD)

# bench-profile says where one workload's CPU goes: it builds ./bench with the
# overlay in scripts/_overlay/ (bench/ itself is not changed), runs the
# workload untraced for SECONDS of windows, profiles them, and prints the
# functions under the windows' workers by cumulative share of the workers'
# samples. The overlay adds the profiler and swaps bench/main.go for the copy
# generated below, whose main is renamed benchMain, so the profiler's main
# waits for the profile before the process exits; the copy is not named *.go,
# or go build ./... would compile it, and overlay.json names its path. make
# bench-profile WORKLOAD=cold_jump SECONDS=12; the binary and cpu.pprof stay
# in bench/out/profile/ for go tool pprof.
PROFILE_DIR := bench/out/profile
SECONDS ?= 12
bench-profile:
	@test -n "$(WORKLOAD)" || { echo "usage: make bench-profile WORKLOAD=<one workload> [SECONDS=12]"; exit 2; }
	mkdir -p $(PROFILE_DIR)
	sed 's/^func main() {$$/func benchMain() {/' bench/main.go > $(PROFILE_DIR)/main.go.in
	$(GO) build -overlay scripts/_overlay/overlay.json -o $(PROFILE_DIR)/bench ./bench
	BENCH_PROFILE=$(PROFILE_DIR)/cpu.pprof $(PROFILE_DIR)/bench -workload $(WORKLOAD) -seconds $(SECONDS) -trace 0 > /dev/null
	$(GO) tool pprof -top -cum -nodecount=60 -focus 'main\.\(\*env\)\.runWindow' -relative_percentages $(PROFILE_DIR)/bench $(PROFILE_DIR)/cpu.pprof

# claims asserts the paper's throughput claims (1, 5, 7 and 8 of
# EXPERIMENTS.md) as medians over seeded CLUSTER1 runs at the scale
# EXPERIMENTS.md reports, each comparison with its measured spread as the
# margin (internal/figures/claims_throughput_test.go, build tag claims). About
# 2 minutes; not part of go test ./..., whose TestClaims holds the claims that
# are counts.
claims:
	$(GO) test -tags claims -count=1 -timeout 10m -run TestThroughputClaims -v ./internal/figures/
