# ctest gate: the zombie-lint exit-code contract, exercised end to end at the
# CLI over the fixture mini-trees in tests/lint_fixtures/:
#   0 — clean tree, fully-suppressed tree, --list-rules, findings demoted to
#       warning (without --werror), a partial scan of a test-only header
#   1 — findings at error severity; warnings under --werror
#   2 — usage errors (unknown option/rule, bad severity level) and IO errors
#       (nonexistent root or path)
# tests/lint_test.cc covers the engine at the unit level; this script pins
# what scripts/check.sh and CI actually observe from the binary.
#
# Invoked as:
#   cmake -DZOMBIE_LINT=<path> -DFIXTURES=<tests/lint_fixtures> \
#         -P lint_contract.cmake
if(NOT DEFINED ZOMBIE_LINT OR NOT DEFINED FIXTURES)
  message(FATAL_ERROR "lint_contract.cmake needs -DZOMBIE_LINT= and -DFIXTURES=")
endif()

# Runs `zombie-lint ${ARGN}` and fails unless it exits with `expected`.
function(expect_exit label expected)
  execute_process(
    COMMAND "${ZOMBIE_LINT}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR
      "${label}: expected exit ${expected}, got ${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "lint contract (${label}): exit ${rc} as expected")
endfunction()

# exit 0: nothing to report.
expect_exit("clean tree" 0 --root=${FIXTURES}/clean)
expect_exit("suppressed tree" 0 --root=${FIXTURES}/suppressed)
expect_exit("rule catalog listing" 0 --list-rules)

# exit 1: findings.
expect_exit("violations tree" 1 --root=${FIXTURES}/violations)
expect_exit("single violating file" 1
            --root=${FIXTURES}/violations src/naked_new.cc)
# A partial scan cannot see every includer, so test-only-header stays quiet.
expect_exit("test-only header, partial scan" 0
            --root=${FIXTURES}/violations src/test_only_header.h)

# Severity plumbing: demoted findings pass without --werror, fail with it.
expect_exit("demoted to warning" 0
            --root=${FIXTURES}/violations src/naked_new.cc
            --severity=naked-new=warning)
expect_exit("demoted to warning under --werror" 1
            --root=${FIXTURES}/violations src/naked_new.cc
            --severity=naked-new=warning --werror)
expect_exit("forced off" 0
            --root=${FIXTURES}/violations src/naked_new.cc
            --severity=naked-new=off)

# exit 2: usage and IO errors.
expect_exit("nonexistent root" 2 --root=${FIXTURES}/no-such-tree)
expect_exit("nonexistent path under good root" 2
            --root=${FIXTURES}/clean src/no_such_file.cc)
expect_exit("unknown option" 2 --bogus)
expect_exit("unknown rule in --severity" 2 --severity=not-a-rule=error)
expect_exit("bad severity level" 2 --severity=naked-new=fatal)
