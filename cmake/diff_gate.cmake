# ctest gate: the `zombieland diff` exit-code contract, exercised end to end
# at the CLI over synthesized report documents:
#   0 — no delta beyond tolerance (clean self-diff; deltas excused by
#       --tolerance flags or a tolerances file; informational mode)
#   1 — file/parse errors (a document that is not a report)
#   2 — usage errors (malformed --tolerance spec, malformed tolerances file)
#   3 — --fail-on-delta with a delta beyond tolerance or a structural change
#       (including a point key repeated within one scenario)
# Also proves the checked-in bench/tolerances.json parses (the CI gate loads
# it; a typo there must fail here, not in CI).
#
# Invoked as:
#   cmake -DZOMBIELAND=<path> -DWORK_DIR=<dir> -DSRC_DIR=<repo root>
#         -P diff_gate.cmake
if(NOT DEFINED ZOMBIELAND OR NOT DEFINED WORK_DIR OR NOT DEFINED SRC_DIR)
  message(FATAL_ERROR "diff_gate.cmake needs -DZOMBIELAND=, -DWORK_DIR= and -DSRC_DIR=")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs `zombieland diff ${ARGN}` and fails unless it exits with `expected`.
function(expect_exit label expected)
  execute_process(
    COMMAND "${ZOMBIELAND}" diff ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR
      "${label}: expected exit ${expected}, got ${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "diff gate (${label}): exit ${rc} as expected")
endfunction()

set(old "${WORK_DIR}/old.json")
set(new "${WORK_DIR}/new.json")
set(garbage "${WORK_DIR}/garbage.json")
set(bad_tolerances "${WORK_DIR}/bad_tolerances.json")
file(WRITE "${old}" "{\"scenario\": \"gate\", \"metrics\": {\"m\": 100, \"gone\": 1}}")
file(WRITE "${new}" "{\"scenario\": \"gate\", \"metrics\": {\"m\": 104}}")
file(WRITE "${garbage}" "not a report document")
file(WRITE "${bad_tolerances}" "{\"default\": \"not-a-tolerance\"}")
# Two documents whose points repeat the key rate=5; only the repeat moved.
set(repeat_old "${WORK_DIR}/repeat_old.json")
set(repeat_new "${WORK_DIR}/repeat_new.json")
function(write_repeated_points path repeat_value)
  file(WRITE "${path}"
    "{\"scenario\": \"gate\", \"metrics\": {}, \"points\": ["
    "{\"axes\": {\"rate\": \"5\"}, \"metrics\": {\"m\": 10}},"
    "{\"axes\": {\"rate\": \"5\"}, \"metrics\": {\"m\": ${repeat_value}}}]}")
endfunction()
write_repeated_points("${repeat_old}" 1010)
write_repeated_points("${repeat_new}" 10)

expect_exit("clean self-diff" 0 --fail-on-delta "${old}" "${old}")
expect_exit("beyond tolerance" 3 --fail-on-delta "${old}" "${new}")
expect_exit("informational without --fail-on-delta" 0 "${old}" "${new}")
expect_exit("excused by --tolerance flags" 0
            --fail-on-delta --tolerance m=5% --tolerance gone=ignore
            "${old}" "${new}")
expect_exit("malformed --tolerance spec" 2
            --tolerance m=bogus "${old}" "${old}")
expect_exit("malformed tolerances file" 2
            --tolerances=${bad_tolerances} "${old}" "${old}")
expect_exit("garbage document" 1 "${garbage}" "${old}")
expect_exit("repeated point key" 3 --fail-on-delta "${repeat_old}" "${repeat_new}")

# The checked-in tolerances file must load and keep a self-diff clean.
expect_exit("checked-in bench/tolerances.json" 0
            --fail-on-delta --tolerances=${SRC_DIR}/bench/tolerances.json
            "${old}" "${old}")
