// ZLINT-ALLOW-FILE(printf-family): Result/Status misuse aborts must not
// depend on the logging layer (logging.h pulls in std::string machinery
// that may itself be mid-failure); this file writes its two fatal
// diagnostics to stderr directly.
#include "src/common/result.h"

#include <cstdio>
#include <cstdlib>

namespace zombie {

namespace internal {

void ResultCheckFailed(const char* what) {
  std::fprintf(stderr, "zombieland: fatal Result/Status misuse: %s\n", what);
  std::fflush(stderr);
  std::abort();
}

void CheckOkFailed(const char* expr, const Status& status) {
  std::fprintf(stderr, "zombieland: ZOMBIE_CHECK_OK(%s) failed: %s\n", expr,
               status.ToString().c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace internal

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk:
      return "OK";
    case ErrorCode::kOutOfMemory:
      return "OUT_OF_MEMORY";
    case ErrorCode::kNotFound:
      return "NOT_FOUND";
    case ErrorCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case ErrorCode::kUnavailable:
      return "UNAVAILABLE";
    case ErrorCode::kConflict:
      return "CONFLICT";
    case ErrorCode::kTimeout:
      return "TIMEOUT";
    case ErrorCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  if (ok()) {
    return "OK";
  }
  std::string out = ErrorCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace zombie
