# ctest gate: micro_hotloop rejects every argument it does not know, --help
# included.  Each must exit 2 with the usage on stderr and nothing on stdout
# (stdout carries the benchmark table, so an empty stdout means nothing was
# measured).
#
# Invoked as:
#   cmake -DBIN=<path to micro_hotloop> -P hotloop_unknown_flag.cmake
if(NOT DEFINED BIN)
  message(FATAL_ERROR "hotloop_unknown_flag.cmake needs -DBIN=")
endif()

function(expect_usage_exit label)
  execute_process(
    COMMAND "${BIN}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: micro_hotloop" OR NOT out STREQUAL "")
    message(FATAL_ERROR
      "${label}: expected exit 2 with usage on stderr and empty stdout, got exit ${rc}\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "micro_hotloop (${label}): exit 2 with usage, as expected")
endfunction()

expect_usage_exit("--help" --help)
expect_usage_exit("unknown flag" --bogus)
expect_usage_exit("typo of a known flag" --baseline BENCH_hotloop.json)
expect_usage_exit("unknown flag after a known one" --json=unused.json -v)
