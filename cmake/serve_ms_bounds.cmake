# ctest gate: the serve scenarios' millisecond parameters have a finite
# maximum (one simulated day, see kMaxServeMs in
# src/scenario/catalog_serve.cc).  One past it must exit 2 with a diagnostic
# naming the parameter and print no report; before the bound, a horizon_ms
# large enough to wrap the ns conversion ran to an empty serve.
#
# Invoked as:
#   cmake -DZOMBIELAND=<path> -P serve_ms_bounds.cmake
if(NOT DEFINED ZOMBIELAND)
  message(FATAL_ERROR "serve_ms_bounds.cmake needs -DZOMBIELAND=")
endif()

foreach(param horizon_ms queue_timeout_ms)
  foreach(value 86400001 18446744073709551615)
    execute_process(
      COMMAND "${ZOMBIELAND}" run serve_steady --smoke --set ${param}=${value}
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "parameter '${param}': ${value} outside"
       OR NOT out STREQUAL "")
      message(FATAL_ERROR
        "${param}=${value}: expected exit 2 with a range diagnostic and no report, "
        "got exit ${rc}\nstdout:\n${out}\nstderr:\n${err}")
    endif()
    message(STATUS "${param}=${value}: exit 2 with a range diagnostic, as expected")
  endforeach()
endforeach()
