// Environment-variable switches shared across the tree.
#ifndef ZOMBIELAND_SRC_COMMON_ENV_H_
#define ZOMBIELAND_SRC_COMMON_ENV_H_

#include <cstdlib>

namespace zombie {

// True when ZOMBIE_BENCH_SMOKE is set and nonzero — the smoke convention
// honoured by the bench_smoke ctest label and the microbenchmarks.  The one
// parser of that variable.
inline bool SmokeEnvEnabled() {
  const char* env = std::getenv("ZOMBIE_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

}  // namespace zombie

#endif  // ZOMBIELAND_SRC_COMMON_ENV_H_
