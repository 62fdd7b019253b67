# ctest gate: the blocking regression diff of scripts/check.sh's `diff`
# stage, in tier-1.  A fresh `zombieland run --all --smoke --format=json`
# must stay within bench/tolerances.json of the checked-in
# BENCH_scenarios.json baseline: `zombieland diff --fail-on-delta` exits 3
# when a metric moved beyond tolerance or the catalog changed shape.  An
# intentional change re-baselines with scripts/bench.sh.
#
# Invoked as:
#   cmake -DZOMBIELAND=<path> -DWORK_DIR=<dir> -DSRC_DIR=<repo root>
#         -P baseline_gate.cmake
if(NOT DEFINED ZOMBIELAND OR NOT DEFINED WORK_DIR OR NOT DEFINED SRC_DIR)
  message(FATAL_ERROR "baseline_gate.cmake needs -DZOMBIELAND=, -DWORK_DIR= and -DSRC_DIR=")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(head "${WORK_DIR}/head.json")

execute_process(
  COMMAND "${ZOMBIELAND}" run --all --smoke --format=json -j 4 --out=${head}
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "zombieland run --all --smoke failed (exit ${run_rc})")
endif()

execute_process(
  COMMAND "${ZOMBIELAND}" diff --fail-on-delta
          --tolerances=${SRC_DIR}/bench/tolerances.json
          "${SRC_DIR}/BENCH_scenarios.json" "${head}"
  RESULT_VARIABLE diff_rc
  OUTPUT_VARIABLE diff_output
  ERROR_VARIABLE diff_error)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
    "zombieland diff against BENCH_scenarios.json exited ${diff_rc}:\n"
    "${diff_output}${diff_error}")
endif()
string(REGEX MATCH "[0-9]+ metrics compared, [0-9]+ changed" summary "${diff_output}")
message(STATUS "baseline gate: ${summary}")
