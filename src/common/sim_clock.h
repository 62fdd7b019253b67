// The simulated clock: discrete-event simulation time, advanced by its
// owner (an EventQueue, or a rack's Tick) and read-only elsewhere.
#ifndef ZOMBIELAND_SRC_COMMON_SIM_CLOCK_H_
#define ZOMBIELAND_SRC_COMMON_SIM_CLOCK_H_

#include <cassert>

#include "src/common/units.h"

namespace zombie {

// Monotonic simulated clock.
class SimClock {
 public:
  SimClock() = default;

  SimTime now() const { return now_; }

  // Advances the clock; time never moves backwards.
  void AdvanceTo(SimTime t) {
    assert(t >= now_ && "simulated time must be monotonic");
    now_ = t;
  }
  void Advance(Duration d) {
    assert(d >= 0);
    now_ += d;
  }

  void Reset() { now_ = 0; }

 private:
  SimTime now_ = 0;
};

}  // namespace zombie

#endif  // ZOMBIELAND_SRC_COMMON_SIM_CLOCK_H_
