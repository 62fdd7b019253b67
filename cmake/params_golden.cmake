# ctest gate: the `zombieland params` page of every registered scenario must
# match tests/golden/params_all_scenarios.txt byte for byte.  It pins each
# scenario's declared parameters (names, types, defaults, descriptions, in
# declaration order) and sweep axes, including the `Sweep axes (cross):`
# heading.  A deliberate change to that surface re-records the golden with
#   zombieland params <every name from `zombieland list`> \
#       > tests/golden/params_all_scenarios.txt
#
# Invoked as:
#   cmake -DZOMBIELAND=<path> -DGOLDEN=<file> -DWORK_DIR=<dir> -P params_golden.cmake
if(NOT DEFINED ZOMBIELAND OR NOT DEFINED GOLDEN OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "params_golden.cmake needs -DZOMBIELAND=, -DGOLDEN= and -DWORK_DIR=")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${ZOMBIELAND}" list --format=csv
  RESULT_VARIABLE list_rc
  OUTPUT_VARIABLE listing)
if(NOT list_rc EQUAL 0)
  message(FATAL_ERROR "zombieland list failed (exit ${list_rc})")
endif()
# Scenario names are the first CSV column; descriptions may hold ';', so the
# names are matched directly instead of splitting the listing into a list.
string(REGEX MATCHALL "\n[a-z0-9_]+," rows "${listing}")
set(names)
foreach(row IN LISTS rows)
  string(REGEX REPLACE "[\n,]" "" scenario "${row}")
  if(NOT scenario STREQUAL "name")  # the CSV header
    list(APPEND names "${scenario}")
  endif()
endforeach()
list(LENGTH names count)
if(count EQUAL 0)
  message(FATAL_ERROR "no scenario names in `zombieland list --format=csv`")
endif()

set(actual "${WORK_DIR}/params_all_scenarios.txt")
execute_process(
  COMMAND "${ZOMBIELAND}" params ${names}
  RESULT_VARIABLE params_rc
  OUTPUT_FILE "${actual}")
if(NOT params_rc EQUAL 0)
  message(FATAL_ERROR "zombieland params failed (exit ${params_rc})")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${actual}"
  RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR
    "params pages of ${count} scenarios differ from the golden (compare ${GOLDEN} vs ${actual})")
endif()
message(STATUS "params pages of ${count} scenarios match the golden")
