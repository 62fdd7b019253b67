// The library's sanctioned fatal-invariant exit.
#ifndef ZOMBIELAND_SRC_COMMON_LOGGING_H_
#define ZOMBIELAND_SRC_COMMON_LOGGING_H_

#include <string>

namespace zombie {

// Emits "[FATAL] tag: message" to stderr and aborts.  This is the library's
// one sanctioned way to die on an invariant violation from a path that has
// no Status channel (so callers don't reach for fprintf+abort, which the
// printf-family lint rule rejects).
[[noreturn]] void FatalMessage(const std::string& tag, const std::string& message);

}  // namespace zombie

#endif  // ZOMBIELAND_SRC_COMMON_LOGGING_H_
