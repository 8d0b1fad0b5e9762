# The bench targets pipe `go test -bench` through awk; without pipefail a
# failing test binary would vanish behind awk's exit 0 and the target would
# "succeed" while appending nothing. bash + pipefail makes every pipeline
# stage's failure the target's failure.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go

.PHONY: build test verify loc loc-check bench-pairs bench-lock bench-wal bench-buffer bench-recovery bench-snapshot bench-all bench-server chaos netchaos recovery metrics server

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# chaos runs the fault-injection and recovery suite under the race
# detector: seeded storage faults and torn writes, buffer-manager retry,
# the buffer-pool torture and flusher tests, transaction restart loops,
# lock-timeout residue, and undo aggregation.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Retry|Torn|Timeout|Restart|Abort|Torture|Flusher' \
		./internal/pagestore/ ./internal/tamix/ ./internal/node/ ./internal/tx/

# netchaos runs the connection-lifecycle resilience suite under the race
# detector: the faultconn injector's unit tests, server keep-alive kills of
# silent connections, the idle-session reaper (locks released, connection
# survives), abrupt client kills mid-burst (zero lock residue), client-side
# session resume with abort-worthy errors, a server bounce under a
# 16-connection TaMix fleet, and a TaMix run over fault-injected wires.
netchaos:
	$(GO) test -race ./internal/faultconn/
	$(GO) test -race -run 'TestNetChaos' ./internal/bibserve/

# recovery runs the WAL and crash-recovery suite under the race detector:
# the seeded crash matrix (log crashes, torn write-backs, full-budget
# bursts, checkpointed bursts, crashes inside the checkpoint protocol's
# three phases), the serial-vs-parallel redo oracle, recovery idempotence,
# the checkpoint codec and master-record tests (plus their fuzz corpora),
# the redo-completeness oracle (live store vs a store redone from the log
# alone, byte for byte, and its late-declaration mutant), checksum rejection
# on page fix, and the transaction double-finish / durable-commit
# contracts. TestMain fails the run if the crash matrix orphans scratch
# directories. Budget: ~2-3 min on 8 cores (the matrix is seed-parallel;
# -short roughly quarters it).
recovery:
	$(GO) test -race -run 'Recover|Crash|TxnDone|Checksum|Corrupt|WAL|GroupCommit|Checkpoint|Master|Fuzz|RedoOracle' \
		./internal/wal/ ./internal/storage/ ./internal/tx/ ./internal/pagestore/

# metrics runs the observability-layer suite under the race detector: the
# histogram property tests, concurrent recorders, registry access, the
# debug endpoint, the run-report golden schema, and the lock manager's
# shutdown-drain test.
metrics:
	$(GO) test -race -run 'Percentile|Histogram|Bucket|Concurrent|Registry|Snapshot|Merge|Debug|ServeDebug|Nil|Report|MinDur|CloseDrains' \
		./internal/metrics/ ./internal/tamix/ ./internal/lock/

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
# the line-budget gate (loc-check), the complete test suite under the race
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
	$(MAKE) -s loc-check
	$(GO) test -race ./...
	$(GO) test -run 'TestAlloc' ./internal/lock/ ./internal/server/ ./internal/client/ ./internal/storage/
	$(GO) test -race -count=20 -run 'TestLoopbackTaMixAllProtocols/snapshot' ./internal/bibserve/

# loc prints non-blank, non-comment Go lines per package (tests and bench/
# excluded) and their total — the number CHANGES.md rows track.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 awk \
		'!/^[ \t]*(\/\/.*)?$$/ { d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++; total++ } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", total }' | sort -k2,2

# loc-check makes the line budget a gate (ROADMAP aim 2: net-negative diffs
# are a goal): it fails when loc's total exceeds LOC_BUDGET, the total of the
# last PR that moved it. A PR that needs more lines raises the number here,
# in the open, and says why in its CHANGES.md row; one that deletes lowers it.
LOC_BUDGET := 15719
loc-check:
	@total=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	if [ "$$total" -gt $(LOC_BUDGET) ]; then \
		echo "loc-check: $$total non-test lines exceed the budget of $(LOC_BUDGET) (make loc lists them per package)"; exit 1; \
	fi; \
	echo "loc-check: $$total non-test lines, budget $(LOC_BUDGET)"

# bench-pairs is the table a PR that touches a measured path reports: it
# builds ./bench at PARENT and at the working tree, runs N alternating pairs
# per workload (order flipped each pair) and prints, per workload and
# end-to-end metric, both medians with quartiles, the change and the pairs
# won. make bench-pairs PARENT=HEAD~1 N=10 WORKLOAD="remote_nav remote_mix"
# BENCH_FLAGS="-seed 7"; about 1 min per pair and workload. With TRACE=1
# METRICS="pagestore.fix_per_txn node.allocs_per_txn ..." the pairs are traced
# runs and the rows the named per-layer metrics, so a PR's per-layer
# acceptance rows come from the same harness as its end-to-end ones.
N ?= 10
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=<rev> [N=10] [WORKLOAD=...] [BENCH_FLAGS=...] [TRACE=1 METRICS=...]"; exit 2; }
	BENCH_FLAGS="$(BENCH_FLAGS)" TRACE="$(TRACE)" METRICS="$(METRICS)" scripts/bench_pairs.py $(PARENT) $(N) $(WORKLOAD)

# bench-lock runs the lock-table contention benchmark and appends one JSON
# line per result to BENCH_lock.json, so successive runs accumulate a
# history.
bench-lock:
	$(GO) test ./internal/lock/ -run XXX -bench BenchmarkLockTableContention -benchtime 1s -benchmem | \
	awk -v date="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" '/^BenchmarkLockTableContention/ { \
		printf "{\"date\":\"%s\",\"bench\":\"%s\",\"iters\":%s,\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}\n", date, $$1, $$2, $$3, $$5, $$7 }' \
	>> BENCH_lock.json

# bench-wal compares single-writer commit (one fsync per record) against
# group commit (concurrent forcers sharing fsyncs) on a file-backed log,
# appending one JSON line per variant to BENCH_wal.json.
bench-wal:
	$(GO) test ./internal/wal/ -run XXX -bench BenchmarkWALAppend -benchtime 2000x | \
	awk -v date="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" '/^BenchmarkWALAppend/ { \
		printf "{\"date\":\"%s\",\"bench\":\"%s\",\"iters\":%s,\"ns_per_op\":%s,\"mb_per_s\":%s,\"appends_per_sync\":%s}\n", date, $$1, $$2, $$3, $$5, $$7 }' \
	>> BENCH_wal.json

# bench-buffer runs the buffer-pool contention benchmark (sharded pool vs
# the single-mutex LRU it replaced, at 1/4/16 goroutines, pure-hit and
# mixed hit/miss scenarios) and appends one JSON line per result plus a
# g16 speedup summary to BENCH_buffer.json.
bench-buffer:
	$(GO) test ./internal/pagestore/ -run XXX -bench BenchmarkBufferContention -benchtime 1s -benchmem | \
	awk -v date="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" '/^BenchmarkBufferContention/ { \
		printf "{\"date\":\"%s\",\"bench\":\"%s\",\"iters\":%s,\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}\n", date, $$1, $$2, $$3, $$5, $$7; \
		if ($$1 ~ /mixed\/sharded\/g16/) sharded = $$3; \
		if ($$1 ~ /mixed\/mutex\/g16/) mutex = $$3 } \
		END { if (sharded > 0 && mutex > 0) \
			printf "{\"date\":\"%s\",\"bench\":\"BufferContentionSpeedup/mixed/g16\",\"mutex_ns_per_op\":%s,\"sharded_ns_per_op\":%s,\"speedup\":%.2f}\n", date, mutex, sharded, mutex / sharded }' \
	>> BENCH_buffer.json

# bench-recovery measures restart latency on crashed TaMix images across
# WAL length × checkpointing × redo parallelism, plus a redo-heavy image
# that isolates the shard-parallel redo pass (redo_ns = slowest shard's
# wall clock). Appends one JSON line per cell and two summary lines — the
# checkpoint restart bound and the 16-shard redo speedup — to
# BENCH_recovery.json.
bench-recovery:
	$(GO) test ./internal/storage/ -run XXX -bench BenchmarkRecovery -benchtime 20x | \
	awk -v date="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" '/^BenchmarkRecovery/ { \
		printf "{\"date\":\"%s\",\"bench\":\"%s\",\"iters\":%s,\"ns_per_op\":%s,\"records\":%s,\"redo_ns\":%s}\n", date, $$1, $$2, $$3, $$5, $$7; \
		if ($$1 ~ /ops=480\/ckpt=false\/shards=1(-|$$)/) longNo = $$3; \
		if ($$1 ~ /ops=480\/ckpt=true\/shards=1(-|$$)/) longCk = $$3; \
		if ($$1 ~ /redo=heavy\/shards=1(-|$$)/) serial = $$7; \
		if ($$1 ~ /redo=heavy\/shards=16(-|$$)/) par = $$7 } \
		END { if (longNo > 0 && longCk > 0) \
			printf "{\"date\":\"%s\",\"bench\":\"RecoveryCheckpointBound/ops=480\",\"nockpt_ns\":%s,\"ckpt_ns\":%s,\"restart_ratio\":%.2f}\n", date, longNo, longCk, longNo / longCk; \
		if (serial > 0 && par > 0) \
			printf "{\"date\":\"%s\",\"bench\":\"RecoveryRedoSpeedup/shards=16\",\"serial_redo_ns\":%s,\"parallel_redo_ns\":%s,\"speedup\":%.2f}\n", date, serial, par, serial / par }' \
	>> BENCH_recovery.json

# bench-snapshot compares MVCC snapshot reads (zero lock-manager traffic)
# against taDOM2 read locks under a background writer, at 1/16/64 reader
# goroutines, appending one JSON line per cell plus a readers=64 speedup
# summary to BENCH_snapshot.json.
bench-snapshot:
	$(GO) test ./internal/node/ -run XXX -bench BenchmarkSnapshotReads -benchtime 1s -benchmem | \
	awk -v date="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" '/^BenchmarkSnapshotReads/ { \
		printf "{\"date\":\"%s\",\"bench\":\"%s\",\"iters\":%s,\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}\n", date, $$1, $$2, $$3, $$5, $$7; \
		if ($$1 ~ /\/snapshot\/readers=64(-|$$)/) snap = $$3; \
		if ($$1 ~ /\/taDOM2\/readers=64(-|$$)/) lock = $$3 } \
		END { if (snap > 0 && lock > 0) \
			printf "{\"date\":\"%s\",\"bench\":\"SnapshotReadSpeedup/readers=64\",\"taDOM2_ns_per_op\":%s,\"snapshot_ns_per_op\":%s,\"speedup\":%.2f}\n", date, lock, snap, lock / snap }' \
	>> BENCH_snapshot.json

# bench-server sweeps the CLUSTER1 workload over every protocol at 1/16/64
# pooled connections against an in-process loopback xtcd, appending one JSON
# line per cell (throughput + request-latency percentiles) to
# BENCH_server.json. Every cell also runs the server-side Verify + LeakCheck
# audit, so this is an end-to-end integrity gate too.
bench-server:
	$(GO) run ./cmd/tamix -server self -out BENCH_server.json

# bench-server-scale is the higher-scale row: a 4x larger document and 4x
# longer timing scale than bench-server's defaults, on the two headline
# protocols at 16 and 64 connections. Rows land in the same
# BENCH_server.json (the doc_scale/time_scale fields tell them apart).
bench-server-scale:
	$(GO) run ./cmd/tamix -server self -doc 0.08 -time 0.008 \
		-protocols taDOM2,taDOM3+ -conns 16,64 -out BENCH_server.json

# bench-all runs every benchmark suite; any failing stage fails the target
# (pipefail, see SHELL above).
bench-all: bench-lock bench-wal bench-buffer bench-recovery bench-snapshot bench-server
