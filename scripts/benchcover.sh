#!/usr/bin/env bash
# benchcover.sh — list the program's functions that benchmark traffic
# never executes.
#
# Builds bench/ with coverage over every package of the module into
# .bench_build/ (like bench/run.sh, whose build cache it shares), runs
# each named workload (all four by default) for --seconds with
# GOCOVERDIR in a temporary directory, and prints the non-test functions
# of the root package and internal/ that no workload executed, one
# "file:line: function" per line.
#
# Usage:
#   scripts/benchcover.sh [--seconds 4] [workload ...]
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

seconds=4
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seconds) seconds="$2"; shift 2 ;;
    -h|--help) sed -n '2,13p' "$0"; exit 0 ;;
    -*) echo "unknown flag: $1" >&2; exit 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(warm_repeat cold_churn ingest_mix remote_reads)

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C bench -cover -coverpkg=repro/... -o "$build/greca-bench-cover" .

cov="$(mktemp -d)"
trap 'rm -rf "$cov"' EXIT
for wl in "${workloads[@]}"; do
  echo "benchcover: $wl for ${seconds}s" >&2
  GOCOVERDIR="$cov" "$build/greca-bench-cover" --workload "$wl" --seconds "$seconds" >/dev/null
done
go tool covdata textfmt -i="$cov" -o="$cov/all.txt"
# The harness's own package belongs to the bench module, which the root
# module cannot resolve; of the rest keep the root package
# (repro/<file>.go) and internal/.
grep -v '^repro/bench/' "$cov/all.txt" >"$cov/profile.txt"
go tool cover -func="$cov/profile.txt" |
  awk '$NF == "0.0%" && $1 ~ /^repro\/([^\/]+\.go|internal\/)/ { sub(/^repro\//, "", $1); print $1 " " $2 }'
