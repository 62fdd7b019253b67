// ZLINT-ALLOW-FILE(printf-family): this file IS the fatal sink; every other
// library file routes its last-gasp stderr traffic through it.
#include "src/common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace zombie {

void FatalMessage(const std::string& tag, const std::string& message) {
  std::fprintf(stderr, "[FATAL] %s: %s\n", tag.c_str(), message.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace zombie
