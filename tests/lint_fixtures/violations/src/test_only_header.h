// Fixture: test-only-header — only tests/test_only_header_test.cc includes
// this header; nothing under src/, tools/ or bench/ does.
#ifndef LINT_FIXTURE_TEST_ONLY_HEADER_H_
#define LINT_FIXTURE_TEST_ONLY_HEADER_H_

namespace fixture {

inline int Eight() { return 8; }

}  // namespace fixture

#endif  // LINT_FIXTURE_TEST_ONLY_HEADER_H_
