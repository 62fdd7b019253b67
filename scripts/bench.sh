#!/usr/bin/env bash
# Perf trajectory runner: builds the benches in Release mode, runs the
# micro_hotloop throughput suite, and writes BENCH_hotloop.json at the repo
# root (the number every perf-minded PR is judged against — see BUILDING.md,
# "Benchmarking & profiling").
#
#   scripts/bench.sh            # micro_hotloop + the bench_smoke label
#   scripts/bench.sh --quick    # micro_hotloop only
#
# Uses build-bench/ (Release, -O3) so the default RelWithDebInfo tier-1 tree
# stays untouched.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="$(nproc 2>/dev/null || echo 4)"
quick=0
if [[ "${1:-}" == "--quick" ]]; then
  quick=1
fi

echo "==> configure + build (build-bench/, Release)"
cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-bench -j "${jobs}" >/dev/null

echo "==> micro_hotloop (full size) -> BENCH_hotloop.json"
./build-bench/micro_hotloop --json="${repo_root}/BENCH_hotloop.json"

echo "==> scenario catalog (smoke) -> BENCH_scenarios.json"
# One aggregate document with every registered scenario's structured report
# (tables + headline metrics + one "points" record per sweep point: axis
# values, per-point metrics, wall-clock); the driver schema-validates each
# entry.  --timings records wall-clock seconds per scenario in the
# document's "timings" object and per point in each report's points
# section, so the artifact doubles as a perf trajectory.  This file is the
# BASELINE of the blocking regression gate: CI (and `scripts/check.sh diff`)
# runs `zombieland diff --fail-on-delta --tolerances=bench/tolerances.json`
# against it on every push, so re-running this script IS the re-baselining
# workflow for intentional metric changes — review the informational diff
# printed below before committing the new baseline.
./build-bench/zombieland run --all --smoke --format=json --timings \
  --out=build-bench/BENCH_scenarios.new.json
if [[ -f "${repo_root}/BENCH_scenarios.json" ]]; then
  echo "==> changes vs the old baseline (informational; review before committing)"
  ./build-bench/zombieland diff "${repo_root}/BENCH_scenarios.json" \
    build-bench/BENCH_scenarios.new.json || true
fi
mv build-bench/BENCH_scenarios.new.json "${repo_root}/BENCH_scenarios.json"

if [[ "${quick}" == "0" ]]; then
  echo "==> bench smoke pass (micro_* binaries + every paper figure, tiny budgets)"
  ctest --test-dir build-bench -L bench_smoke --output-on-failure -j "${jobs}"
  echo "==> perf gate at Release optimisation"
  ctest --test-dir build-bench -L perf_smoke --output-on-failure
fi

echo "==> bench.sh: done (see BENCH_hotloop.json, BENCH_scenarios.json)"
