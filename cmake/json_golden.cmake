# ctest gate: `zombieland run table3 --smoke --format=json` must match
# tests/golden/table3_smoke.json byte for byte.  The diff gate and every other
# JSON consumer parse their input, so this golden is what pins the writer's
# layout (report::WriteJson): a change to it shows up here as a golden diff.
# A deliberate layout change re-records the golden with
#   zombieland run table3 --smoke --format=json --out=tests/golden/table3_smoke.json
#
# Invoked as:
#   cmake -DZOMBIELAND=<path> -DGOLDEN=<file> -DWORK_DIR=<dir> -P json_golden.cmake
if(NOT DEFINED ZOMBIELAND OR NOT DEFINED GOLDEN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "json_golden.cmake needs -DZOMBIELAND=, -DGOLDEN= and -DWORK_DIR=")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(actual "${WORK_DIR}/table3_smoke.json")
execute_process(
  COMMAND "${ZOMBIELAND}" run table3 --smoke --format=json --out=${actual}
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "zombieland run table3 failed (exit ${run_rc})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${actual}"
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR "table3 JSON differs from the golden (compare ${GOLDEN} vs ${actual})")
endif()
message(STATUS "table3 JSON matches the golden")
