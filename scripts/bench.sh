#!/usr/bin/env bash
# Performance trajectory snapshot: run the Go benchmark suite for human
# inspection, then emit a machine-readable BENCH_<date>.json via
# cmd/mppbench. Commit the JSON — successive snapshots are the repo's
# perf history, diffable across PRs.
#
#   scripts/bench.sh                   # BENCH_<today>.json, full windows
#   scripts/bench.sh my.json           # custom output path
#   QUICK=1 scripts/bench.sh           # shorter sampling windows
#   BENCHTIME=5x scripts/bench.sh      # longer go-test benches
#   WORKERS=1,2,4,8 scripts/bench.sh   # async sharded-solver sweep widths
#   MODES=deterministic scripts/bench.sh  # skip the async engine rows
#   CACHE=false scripts/bench.sh       # skip the solve-cache hit rows
#
# On a single-CPU machine (or GOMAXPROCS=1) a multi-width WORKERS sweep
# measures sharding overhead, not speedup: mppbench prints a loud
# warning and stamps the snapshot's "sweep_warning" field so the JSON
# cannot be mistaken for a multicore result.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_$(date -u +%Y-%m-%d).json}"

echo "== go test -bench (micro + experiment benchmarks) =="
go test -run 'xxx' -bench . -benchmem -benchtime "${BENCHTIME:-1x}" .

# Diff the fresh run against the most recent committed snapshot (if any):
# the snapshot is still written on a regression, but the script fails so
# the >20% states-expanded jump cannot land silently.
prev=$(ls BENCH_*.json 2>/dev/null | grep -vF "$out" | sort | tail -1 || true)

echo "== mppbench -> $out =="
# WORKERS sets the async sharded-solver sweep (-wN rows with a speedup
# column vs the -w1 baseline) and MODES which engines run (the
# deterministic engine is sequential and gets one -w1 row, diff-gated
# at +20% states; async rows are timing-dependent and gated at +50%).
# CACHE gates the solve-cache hit-latency rows (cache group), -diff-
# gated on ns/op with a 10x tolerance rather than states expanded.
go run ./cmd/mppbench ${QUICK:+-quick} -workers "${WORKERS:-1,2,4}" -modes "${MODES:-deterministic,async}" -cache="${CACHE:-true}" -out "$out" ${prev:+-diff "$prev"}
