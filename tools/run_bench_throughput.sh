#!/usr/bin/env bash
# Builds bench_throughput in Release and regenerates the committed
# BENCH_throughput.json at the repo root: the batched wire path on a
# loopback pair and a 4-node relay chain (DESIGN.md §8).
#
#   tools/run_bench_throughput.sh [--secs <s>]   # default 1.0 s/config
set -euo pipefail
cd "$(dirname "$0")/.."

SECS=1.0
if [[ "${1:-}" == "--secs" && -n "${2:-}" ]]; then SECS=$2; fi

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$(nproc)" --target bench_throughput
./build-release/bench/bench_throughput --secs "$SECS" --out BENCH_throughput.json
