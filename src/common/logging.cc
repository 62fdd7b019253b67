// ZLINT-ALLOW-FILE(printf-family): this file IS the logging sink; every
// other library file routes its stderr traffic through it.
#include "src/common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace zombie {
namespace {

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void LogMessage(LogLevel level, const std::string& tag, const std::string& message) {
  std::fprintf(stderr, "[%s] %s: %s\n", LevelName(level), tag.c_str(), message.c_str());
}

void FatalMessage(const std::string& tag, const std::string& message) {
  std::fprintf(stderr, "[FATAL] %s: %s\n", tag.c_str(), message.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace zombie
