#!/usr/bin/env bash
# Full local verification, split into the stages the CI workflow runs as its
# matrix (.github/workflows/ci.yml).  Run from anywhere inside the repo.
#
#   scripts/check.sh                  # lint tier1 scenario faults serve diff perf asan tsan
#   scripts/check.sh --fast           # same minus the sanitizer stages (asan, tsan)
#   scripts/check.sh tier1 scenario   # just the named stages
#
# Stages:
#   tier1     configure + build + ctest (build/), perf_smoke excluded — the
#             perf gate runs exactly once, in its own serial stage
#   scenario  every registered scenario emits schema-valid JSON; -j 4 output
#             is byte-identical to -j 1 (part of ctest too; re-run via the
#             CLI here so the gate works without ZOMBIE_BUILD_TESTS)
#   faults    fault-injection smoke: the `faults` ctest label (lease/failover
#             unit suites + the faults_* scenario family), then the fault
#             sweep re-run at -j 4 vs -j 1 — recovery must be deterministic
#             and every sweep point must report zero orphaned buffers
#   serve     online serving mode: the `serve` ctest label (stream/daemon
#             unit suite + the serve_* scenario family smoke), then the
#             serving sweeps re-run at -j 4 vs -j 1 — admission/placement
#             tail latencies and shed rates must be byte-identical — and
#             one full-size (non-smoke) serve_steady render at -j 4 vs -j 1,
#             so the daemon's streamed event loop is held byte-identical
#             beyond the smoke sizes
#   diff      regression gate: a fresh run of the catalog must stay within
#             bench/tolerances.json of the checked-in BENCH_scenarios.json
#             (`zombieland diff --fail-on-delta` exits 3 on any violation;
#             re-baseline deliberate changes with scripts/bench.sh)
#   perf      micro_hotloop vs the floor derived from the checked-in
#             BENCH_hotloop.json baseline (--baseline/--tolerances), serial.  Skipped when
#             ZOMBIE_SKIP_PERF=1 (escape hatch for CI runners with noisy
#             neighbors; the workflow sets it, local runs default to off)
#   asan      ASan/UBSan configure + build + ctest (build-asan/)
#   tsan      TSan configure + build (build-tsan/, ZOMBIE_SANITIZE=thread),
#             then the concurrent surface: the `threaded` ctest label (sharded
#             pager + WorkQueue stress suites and the hotloop_threaded smoke)
#             plus the `serve` and `faults` labels, and a micro_hotloop smoke
#             pass so the shard workers run under the race detector (no floor
#             gate — instrumentation overhead would always trip it)
#   bench     Release build (build-bench/) + the bench_smoke label: the
#             three micro_* binaries plus scenario_cli.run_all_smoke_table,
#             one `zombieland run --all --smoke` table render of every paper
#             figure/table/ablation (no per-figure tests or binaries); then
#             the layered benchmark's self-test (python3 perfbench/selftest.py:
#             metric names and units match BENCHMARK.json, fingerprints are
#             reproducible and match perfbench/fingerprints.json, and a
#             corrupted fingerprint file is reported — the check that catches
#             a speedup that simulates less work)
#   lint      static analysis: zombie-lint over the whole tree (BLOCKING —
#             any finding fails the stage; suppressions need a written
#             reason), the `lint` ctest label (engine unit tests, fixture
#             rules, the 0/1/2 exit-code contract, the include-selfcheck
#             configure gate), then clang-tidy over changed files when the
#             tool is on PATH (skipped gracefully otherwise — zombie-lint
#             is the dependency-free floor)
#
# ccache is used automatically when present.  Exit code is nonzero if any
# stage fails.  Every stage's wall-clock is printed at the end; when
# GITHUB_STEP_SUMMARY is set (CI), the same table plus `ccache -s` goes to
# the job summary.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="$(nproc 2>/dev/null || echo 4)"

cmake_args=()
if command -v ccache >/dev/null 2>&1; then
  cmake_args+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

stages=()
for arg in "$@"; do
  case "${arg}" in
    --fast) stages+=(lint tier1 scenario faults serve diff perf) ;;
    lint|tier1|scenario|faults|serve|diff|perf|asan|tsan|bench) stages+=("${arg}") ;;
    *)
      echo "check.sh: unknown argument '${arg}'" >&2
      echo "usage: scripts/check.sh [--fast] [lint|tier1|scenario|faults|serve|diff|perf|asan|tsan|bench ...]" >&2
      exit 2
      ;;
  esac
done
if [[ ${#stages[@]} -eq 0 ]]; then
  stages=(lint tier1 scenario faults serve diff perf asan tsan)
fi

# Per-stage wall-clock, reported at the end (and to the CI job summary).
stage_names=()
stage_secs=()

total=${#stages[@]}
n=0
for stage in "${stages[@]}"; do
  n=$((n + 1))
  stage_start=${SECONDS}
  case "${stage}" in
    lint)
      echo "==> [${n}/${total}] lint: zombie-lint (blocking) + ctest -L lint + clang-tidy"
      cmake -B build -S . "${cmake_args[@]}" >/dev/null
      cmake --build build -j "${jobs}" --target zombie-lint lint_test
      # The project linter is blocking: any finding at error severity fails
      # the stage.  Findings (if any) also land in the CI job summary.
      lint_rc=0
      ./build/zombie-lint --root=. | tee build/lint_findings.txt || lint_rc=$?
      if [[ -n "${GITHUB_STEP_SUMMARY:-}" && -s build/lint_findings.txt ]]; then
        {
          echo "### zombie-lint findings"
          echo ""
          echo '```'
          cat build/lint_findings.txt
          echo '```'
        } >> "${GITHUB_STEP_SUMMARY}"
      fi
      if [[ "${lint_rc}" -ne 0 ]]; then
        echo "check.sh: zombie-lint found violations (see above); suppress" >&2
        echo "only with a written reason: // ZLINT-ALLOW(rule): why" >&2
        exit "${lint_rc}"
      fi
      # The lint ctest label: engine unit tests, fixture rules, the 0/1/2
      # exit-code contract, and the include-selfcheck configure gate.
      ctest --test-dir build -L lint --output-on-failure -j "${jobs}"
      # clang-tidy over changed compiled files when the tool is available.
      # compile_commands.json is exported by the configure above; without
      # clang-tidy on PATH this is a graceful skip (offline containers) —
      # zombie-lint above is the dependency-free floor.
      if command -v clang-tidy >/dev/null 2>&1; then
        tidy_base="$(git merge-base origin/main HEAD 2>/dev/null || echo HEAD)"
        mapfile -t tidy_files < <(git diff --name-only --diff-filter=d \
          "${tidy_base}" -- 'src/*.cc' 'tools/*.cc' 2>/dev/null || true)
        if [[ ${#tidy_files[@]} -gt 0 ]]; then
          echo "    clang-tidy over ${#tidy_files[@]} changed file(s)"
          clang-tidy -p build "${tidy_files[@]}"
        else
          echo "    clang-tidy: no changed .cc files vs ${tidy_base}"
        fi
      else
        echo "    clang-tidy: not on PATH, skipping (zombie-lint already ran)"
      fi
      ;;
    tier1)
      echo "==> [${n}/${total}] tier-1: configure + build + ctest (build/)"
      cmake -B build -S . "${cmake_args[@]}"
      cmake --build build -j "${jobs}"
      # perf_smoke is excluded here; the perf stage runs it serially so the
      # throughput measurement is not polluted by parallel test load.
      ctest --test-dir build --output-on-failure -j "${jobs}" -LE perf_smoke
      ;;
    scenario)
      echo "==> [${n}/${total}] scenario gate: schema-valid JSON, -j 4 == -j 1"
      # The driver validates each document against the report schema before
      # emitting it; a scenario that fails to run or emits bad JSON fails
      # here.  The parallel run must be byte-identical to the serial one.
      cmake -B build -S . "${cmake_args[@]}" >/dev/null
      cmake --build build -j "${jobs}" --target zombieland
      ./build/zombieland run --all --smoke --format=json -j 1 --out=build/check_j1.json
      ./build/zombieland run --all --smoke --format=json -j 4 --out=build/check_j4.json
      cmp build/check_j1.json build/check_j4.json
      ./build/zombieland list > /dev/null
      ./build/zombieland params fig08 > /dev/null
      ;;
    faults)
      echo "==> [${n}/${total}] fault injection: ctest -L faults + deterministic recovery"
      cmake -B build -S . "${cmake_args[@]}" >/dev/null
      cmake --build build -j "${jobs}"
      # The labelled surface: lease/failover unit suites plus the faults_*
      # scenario family (whose runner fails any sweep point that does not
      # recover with zero orphaned buffers).
      ctest --test-dir build -L faults --output-on-failure -j "${jobs}"
      # Recovery must be deterministic: the fault sweep rendered with point
      # parallelism is byte-identical to the serial render.
      ./build/zombieland run faults_controlplane faults_timeline --smoke \
        --format=json -j 1 --out=build/faults_j1.json
      ./build/zombieland run faults_controlplane faults_timeline --smoke \
        --format=json -j 4 --out=build/faults_j4.json
      cmp build/faults_j1.json build/faults_j4.json
      ;;
    serve)
      echo "==> [${n}/${total}] online serving: ctest -L serve + deterministic SLO sweeps"
      cmake -B build -S . "${cmake_args[@]}" >/dev/null
      cmake --build build -j "${jobs}"
      # The labelled surface: the stream/daemon unit suite plus the serve_*
      # scenario family (serve_faults fails any sweep point that does not
      # recover with zero orphaned buffers).
      ctest --test-dir build -L serve --output-on-failure -j "${jobs}"
      # Tail-latency percentiles and shed rates must not depend on sweep
      # parallelism: the -j 4 render is byte-identical to the serial one.
      ./build/zombieland run serve_steady serve_spike serve_faults --smoke \
        --format=json -j 1 --out=build/serve_j1.json
      ./build/zombieland run serve_steady serve_spike serve_faults --smoke \
        --format=json -j 4 --out=build/serve_j4.json
      cmp build/serve_j1.json build/serve_j4.json
      # The same at full size: longer timelines put more ticks, verdicts and
      # wakes on shared instants than the smoke sizes do.
      ./build/zombieland run serve_steady --format=json -j 1 \
        --out=build/serve_full_j1.json
      ./build/zombieland run serve_steady --format=json -j 4 \
        --out=build/serve_full_j4.json
      cmp build/serve_full_j1.json build/serve_full_j4.json
      ;;
    diff)
      echo "==> [${n}/${total}] diff gate: fresh run vs BENCH_scenarios.json"
      # The blocking regression gate CI runs: render the catalog and hold it
      # against the checked-in baseline under bench/tolerances.json.  Exit 3
      # means a metric moved beyond tolerance (or the catalog changed shape);
      # if the change is intentional, re-baseline with scripts/bench.sh and
      # commit the new BENCH_scenarios.json.
      cmake -B build -S . "${cmake_args[@]}" >/dev/null
      cmake --build build -j "${jobs}" --target zombieland
      ./build/zombieland run --all --smoke --format=json --timings \
        --out=build/diff_head.json
      ./build/zombieland diff --fail-on-delta --tolerances=bench/tolerances.json \
        BENCH_scenarios.json build/diff_head.json
      ;;
    perf)
      if [[ "${ZOMBIE_SKIP_PERF:-0}" == "1" ]]; then
        echo "==> [${n}/${total}] perf gate: skipped (ZOMBIE_SKIP_PERF=1)"
        continue
      fi
      echo "==> [${n}/${total}] perf gate: micro_hotloop vs the checked-in baseline"
      ctest --test-dir build -L perf_smoke --output-on-failure
      ;;
    asan)
      echo "==> [${n}/${total}] ASan/UBSan: configure + build + ctest (build-asan/)"
      # perf_smoke is not registered under ZOMBIE_SANITIZE (instrumentation
      # would always trip the floor).
      cmake -B build-asan -S . -DZOMBIE_SANITIZE=ON "${cmake_args[@]}"
      cmake --build build-asan -j "${jobs}"
      ctest --test-dir build-asan --output-on-failure -j "${jobs}"
      ;;
    tsan)
      echo "==> [${n}/${total}] TSan: configure + build + the concurrent surface (build-tsan/)"
      # The race-detector lane for the per-vCPU data plane: shard workers,
      # the ClientRing slot protocol, WorkQueue nesting, and the existing
      # serve/faults threading all run instrumented.  perf_smoke is not
      # registered under ZOMBIE_SANITIZE.
      cmake -B build-tsan -S . -DZOMBIE_SANITIZE=thread "${cmake_args[@]}"
      cmake --build build-tsan -j "${jobs}"
      ctest --test-dir build-tsan -L 'threaded|serve|faults' \
        --output-on-failure -j "${jobs}"
      # micro_hotloop's threaded rows under TSan: smoke budget, no floor
      # arguments — this is a race hunt, not a throughput measurement.
      ZOMBIE_BENCH_SMOKE=1 ./build-tsan/micro_hotloop > /dev/null
      ./build-tsan/zombieland run hotloop_threaded --smoke --format=json \
        -j 4 --out=build-tsan/hotloop_threaded.json
      ;;
    bench)
      echo "==> [${n}/${total}] bench smoke: Release build + bench_smoke label"
      cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release "${cmake_args[@]}"
      cmake --build build-bench -j "${jobs}"
      ctest --test-dir build-bench -L bench_smoke --output-on-failure -j "${jobs}"
      python3 perfbench/selftest.py
      ;;
  esac
  stage_names+=("${stage}")
  stage_secs+=("$((SECONDS - stage_start))")
done

echo "==> check.sh: all stages passed"
echo "==> stage wall-clock:"
for i in "${!stage_names[@]}"; do
  printf '    %-10s %4ss\n' "${stage_names[$i]}" "${stage_secs[$i]}"
done
if command -v ccache >/dev/null 2>&1; then
  echo "==> ccache stats:"
  ccache -s | sed 's/^/    /'
fi
if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
  {
    echo "### check.sh stages"
    echo ""
    echo "| stage | wall-clock |"
    echo "| --- | --- |"
    for i in "${!stage_names[@]}"; do
      echo "| ${stage_names[$i]} | ${stage_secs[$i]}s |"
    done
    if command -v ccache >/dev/null 2>&1; then
      echo ""
      echo "<details><summary>ccache -s</summary>"
      echo ""
      echo '```'
      ccache -s
      echo '```'
      echo "</details>"
    fi
  } >> "${GITHUB_STEP_SUMMARY}"
fi
