// Minimal leveled logging for the library: one-line stderr emission and the
// sanctioned fatal-invariant exit.
#ifndef ZOMBIELAND_SRC_COMMON_LOGGING_H_
#define ZOMBIELAND_SRC_COMMON_LOGGING_H_

#include <string>

namespace zombie {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

// Emits one formatted line to stderr ("[LEVEL] tag: message").
void LogMessage(LogLevel level, const std::string& tag, const std::string& message);

// Emits "[FATAL] tag: message" to stderr and aborts.  Never filtered by the
// log level: this is the library's one sanctioned way to die on an invariant
// violation from a path that has no Status channel (so callers don't reach
// for fprintf+abort, which the printf-family lint rule rejects).
[[noreturn]] void FatalMessage(const std::string& tag, const std::string& message);

}  // namespace zombie

#endif  // ZOMBIELAND_SRC_COMMON_LOGGING_H_
