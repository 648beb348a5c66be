#!/usr/bin/env bash
# run-benchmarks.sh — run the pinned hot-path benchmarks and emit the
# machine-readable report (see BENCHMARKS.md).
#
# Usage:
#   scripts/run-benchmarks.sh [-benchtime 5x] [-out BENCH_current.json]
#
# Environment:
#   GOMAXPROCS   pinned to 4 unless already set — alloc counts depend
#                on worker counts, so the gate needs one fixed value
#                across machines (the CI perf job uses the same pin).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="5x"
OUT="BENCH_current.json"
while [ $# -gt 0 ]; do
  case "$1" in
    -benchtime) BENCHTIME="$2"; shift 2 ;;
    -out)       OUT="$2";       shift 2 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done

export GOMAXPROCS="${GOMAXPROCS:-4}"

# The pinned set: the hot-path serving benchmarks (parallel recommend,
# submit), the lazy/eager PD list pair, the ingest-mix pair (scoped
# neighborhood invalidation vs the test-only drop-everything reference
# world; the sub-benchmarks ride along via the path match, like
# shards=N and g=N; views drop on every rating under both), the
# distributed serving path over loopback workers, the canonical-sort
# kernel every view build runs (0 allocs/op: its scratch is pooled), and
# the neighborhood fill a rating makes the serving path pay again (one
# cold fill and its drop on the bench workloads' 2 000-user world: the
# co-rater bitset, the candidate slice and the kept top-k), and the batch
# prediction every view build runs on that world (warm neighborhood, at
# 600 candidates and at the whole 1 500-item catalog, a view build's
# pool; 0 allocs/op: its working set is pooled), and the
# affinity model build every world pays at start (n=600 participants,
# six two-month periods: normalizers from the sources' counted stats;
# n=5000 rides along and has no baseline row) with the pair read every
# request then makes on it (g=3
# and g=5, static and six drift rows into caller-owned rows; 0
# allocs/op), and one GRECA run to completion on a prebuilt problem
# (g=5 over 600 candidates under AP, MO and PD: the stepper and its
# stopping checks alone).
PINNED='^(BenchmarkRecommendParallel|BenchmarkServeSubmit|BenchmarkPDLazyLists|BenchmarkPDEagerLists|BenchmarkIngestMix|BenchmarkIngestOnly|BenchmarkRecommendRemote|BenchmarkRecommendRemoteBatched|BenchmarkSortCanonical|BenchmarkNeighborhoodFill|BenchmarkPredictBatch|BenchmarkBuildModel|BenchmarkGroupAffinity|BenchmarkGRECARun)$'

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT
go test -run='^$' -bench "$PINNED" -benchtime "$BENCHTIME" -benchmem ./... | tee "$TMP"
go run ./scripts/benchjson < "$TMP" > "$OUT"
echo "wrote $OUT (GOMAXPROCS=$GOMAXPROCS, benchtime=$BENCHTIME)"
