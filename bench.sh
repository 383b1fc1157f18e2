#!/bin/sh
# bench.sh — run the write-path and read-path benchmarks and record the
# results as JSON in BENCH_writepath.json and BENCH_readpath.json.
#
# Write path (BENCH_writepath.json):
#   BenchmarkWritePathAllocs        allocation budget for WriteLog+Force
#   BenchmarkWritePathAllocsTelemetry  same budget with telemetry armed
#   BenchmarkTelemetryOverhead      enabled-vs-disabled force-path ablation
#                                   (enabled case reports p50-ns/p99-ns force
#                                   latency from the live histogram)
#   BenchmarkForceLogMemnet         end-to-end forced append, N=2
#   BenchmarkParallelForce          N=3 fan-out under 1ms one-way latency
#   BenchmarkGroupCommit            concurrent committers coalescing rounds
#   BenchmarkGroupCommitTransactions  same, through the public Engine API
#   BenchmarkUDPRecvAllocs          allocation budget for the pooled UDP
#                                   receive path (send+recv+release)
#   BenchmarkMultiClientForce       aggregate forces/s across 1/4/8/16
#                                   concurrent clients, SegStore (fsync)
#                                   and modelled DiskStore (server-side
#                                   group force scaling)
#   BenchmarkStreamingWrite         single-client sustained records/s on a
#                                   200µs-latency memnet through the
#                                   streaming write pipeline (sliding
#                                   send window)
#   BenchmarkAggregateForce         aggregate forces/s at 16 vs 64 clients
#                                   on the same 200µs memnet + modelled
#                                   disks (population-scale pipelining)
#   BenchmarkMigrationUnderET1Load  server-kill-under-ET1-load scenario:
#                                   migrate-µs is the latency from a node
#                                   draining to the client's write set
#                                   fully re-anchored on healthy servers
#                                   while transactions keep committing
#   BenchmarkForceUnderCompaction   force p50/p99 over segmented stores
#                                   with the background compactor off vs
#                                   on (latency-paced reclamation must
#                                   not blow the force tail)
#   BenchmarkStreamScaling          ET1-shaped commits/s with the client's
#                                   log spread over K=1/2/4 parallel
#                                   streams (fixed worker pool; K force
#                                   pipelines against the same servers)
#
# Read path (BENCH_readpath.json):
#   BenchmarkRecoveryScan           full-log recovery-style scan over a
#                                   memnet with non-zero latency: one
#                                   ReadRecord round trip per LSN vs the
#                                   streaming cursor (read-ahead window,
#                                   multi-record packets, holder fan-out)
#   BenchmarkArchiveLookupAcrossVolumes  cold-tier point reads when the
#                                   archive stream is cut into many
#                                   rotating volumes and every lookup
#                                   routes through the forest to the
#                                   right file
#   BenchmarkParallelRecovery       restart recovery of the same ET1
#                                   history on one stream vs four: K
#                                   prefetching cursors merged by
#                                   dependency vector vs one scan
set -eu

cd "$(dirname "$0")"

# POSIX sh has no pipefail, so collect each run's output and check its
# exit status before touching the output file. run() appends to $RAW,
# which each section points at a fresh temp file.
run() {
	if ! go test "$@" ${BENCHTIME:+-benchtime "$BENCHTIME"} >>"$RAW" 2>&1; then
		cat "$RAW" >&2
		echo "bench.sh: benchmark run failed; $OUT left untouched" >&2
		exit 1
	fi
}

# Convert `go test -bench` lines in $RAW into a JSON array in $OUT.
# Fields beyond the standard ns/op, B/op, allocs/op (e.g. rounds/force,
# recs/s) are kept as extra metric pairs.
to_json() {
	awk '
	BEGIN { print "[" ; n = 0 }
	/^Benchmark/ {
		if (n++) print ","
		printf "  {\"name\": \"%s\", \"iterations\": %s", $1, $2
		for (i = 3; i < NF; i += 2) {
			unit = $(i + 1)
			gsub(/"/, "", unit)
			printf ", \"%s\": %s", unit, $i
		}
		printf "}"
	}
	END { print "\n]" }
	' "$RAW" >"$OUT"
	echo "wrote $OUT"
}

RAW1=$(mktemp)
RAW2=$(mktemp)
trap 'rm -f "$RAW1" "$RAW2"' EXIT

# --- write path ------------------------------------------------------
OUT=BENCH_writepath.json
RAW=$RAW1
run ./internal/core/ -run '^$' -benchmem \
	-bench 'BenchmarkWritePathAllocs|BenchmarkTelemetryOverhead|BenchmarkForceLogMemnet|BenchmarkParallelForce|BenchmarkGroupCommit$'
run ./internal/transport/ -run '^$' -benchmem -bench 'BenchmarkUDPRecvAllocs'
run . -run '^$' -benchmem -bench 'BenchmarkGroupCommitTransactions|BenchmarkMultiClientForce|BenchmarkStreamingWrite|BenchmarkAggregateForce|BenchmarkMigrationUnderET1Load|BenchmarkForceUnderCompaction|BenchmarkStreamScaling'
cat "$RAW"
to_json

# --- read path -------------------------------------------------------
OUT=BENCH_readpath.json
RAW=$RAW2
run . -run '^$' -bench 'BenchmarkRecoveryScan|BenchmarkParallelRecovery'
run ./internal/retention/ -run '^$' -bench 'BenchmarkArchiveLookupAcrossVolumes'
cat "$RAW"
to_json
